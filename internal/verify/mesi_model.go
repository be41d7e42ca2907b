package verify

import (
	"fmt"
	"sort"
	"strings"
)

// The abstract MESI model mirrors internal/mesi: a full-map directory with
// blocking ownership transactions, requestor-collected invalidation acks,
// exclusive clean grants, non-blocking read grants, silent S evictions,
// and M/E evictions whose writebacks can race forwarded requests (the
// directory stale-acks a Put from a core that already lost ownership, and
// a forwarded request reaching an evicted owner is answered from the
// committed image). One line, N cores, bounded reads/writes per core.
//
// The point of this model (after [21]): even this simplified MESI breeds
// a zoo of transient controller states — L1s waiting for data, counting
// acks, directories blocked mid-transaction with queued requests — while
// the DeNovo model next door gets by with three stable states and a
// single "registration pending" transient.

// meCoreState is the abstract model's per-core stable L1 state, and
// meDirState the directory's. Typed so that simlint's exhauststate
// analyzer verifies every switch covers all declared states — the model's
// whole point is enumerating transitions, so a silently ignored state
// would quietly prune the reachable space.
type meCoreState byte

const (
	meI meCoreState = 'I'
	meS meCoreState = 'S'
	meE meCoreState = 'E'
	meM meCoreState = 'M'
)

type meDirState byte

const (
	mdI meDirState = 'I'
	mdS meDirState = 'S'
	mdM meDirState = 'M'
)

type meTxn struct {
	wantM    bool
	dataRecv bool
	excl     bool
	unblock  bool
	acksNeed int // -1 = unknown
	acksGot  int
}

type meCore struct {
	state   meCoreState
	txn     *meTxn
	opsLeft int
}

type meMsg struct {
	kind string // "gets","getm","data","inv","invack","fwds","fwdm","unblock","ownerack"
	src  int    // sender: core ID or -1 for the directory
	to   int    // destination core; -1 = directory
	req  int    // original requestor
	acks int
	excl bool
	unbl bool
}

type meDirReq struct {
	core  int
	wantM bool
}

type meState struct {
	cores    []meCore
	dirState meDirState
	owner    int // -1 = none
	sharers  []bool
	busy     bool
	needAcks int
	queue    []meDirReq
	msgs     []meMsg
}

func (s *meState) clone() *meState {
	n := &meState{dirState: s.dirState, owner: s.owner, busy: s.busy, needAcks: s.needAcks}
	n.cores = make([]meCore, len(s.cores))
	copy(n.cores, s.cores)
	for i := range s.cores {
		if s.cores[i].txn != nil {
			t := *s.cores[i].txn
			n.cores[i].txn = &t
		}
	}
	n.sharers = append([]bool(nil), s.sharers...)
	n.queue = append([]meDirReq(nil), s.queue...)
	n.msgs = append([]meMsg(nil), s.msgs...)
	return n
}

func (m meMsg) String() string {
	return fmt.Sprintf("%s(s%d,to%d,req%d,a%d,e%t,u%t)", m.kind, m.src, m.to, m.req, m.acks, m.excl, m.unbl)
}

func (s *meState) encode() string {
	var b strings.Builder
	for _, c := range s.cores {
		fmt.Fprintf(&b, "%c%d", c.state, c.opsLeft)
		if c.txn != nil {
			fmt.Fprintf(&b, "{%t,%t,%d,%d}", c.txn.wantM, c.txn.dataRecv, c.txn.acksNeed, c.txn.acksGot)
		}
		b.WriteString(";")
	}
	fmt.Fprintf(&b, "|%c,o%d,b%t,n%d,sh", s.dirState, s.owner, s.busy, s.needAcks)
	for _, sh := range s.sharers {
		if sh {
			b.WriteString("1")
		} else {
			b.WriteString("0")
		}
	}
	b.WriteString(",q")
	for _, q := range s.queue {
		fmt.Fprintf(&b, "(%d,%t)", q.core, q.wantM)
	}
	b.WriteString("|")
	// Per-channel (src,to) order is semantically significant (the mesh is
	// FIFO per source-destination pair), but the interleaving of distinct
	// channels is not: canonicalize by sorting whole channels.
	chans := map[[2]int][]string{}
	var keys [][2]int
	for _, m := range s.msgs {
		k := [2]int{m.src, m.to}
		if len(chans[k]) == 0 {
			keys = append(keys, k)
		}
		chans[k] = append(chans[k], m.String())
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		b.WriteString(strings.Join(chans[k], ">"))
		b.WriteString(",")
	}
	return b.String()
}

type meModel struct {
	cores, maxOps int
	extended      bool // evictions/writebacks beyond the base op set
	table         map[string]*meState
	rec           TransitionRecorder // optional; see transitions.go
}

// NewMESIModel explores the full MESI model including evictions and
// writeback races.
func NewMESIModel(cores, maxOps int) *Result {
	m := &meModel{cores: cores, maxOps: maxOps, extended: true, table: map[string]*meState{}}
	return explore(m, "MESI", cores, maxOps, 4_000_000)
}

// NewMESIModelBase explores the protocol over reads and writes only (no
// evictions) — the like-for-like counterpart of NewDeNovoModelBase.
func NewMESIModelBase(cores, maxOps int) *Result {
	m := &meModel{cores: cores, maxOps: maxOps, table: map[string]*meState{}}
	return explore(m, "MESI-base", cores, maxOps, 4_000_000)
}

func (d *meModel) initial() string {
	s := &meState{dirState: 'I', owner: -1, sharers: make([]bool, d.cores)}
	for i := 0; i < d.cores; i++ {
		s.cores = append(s.cores, meCore{state: 'I', opsLeft: d.maxOps})
	}
	return d.intern(s)
}

func (d *meModel) intern(s *meState) string {
	e := s.encode()
	if _, ok := d.table[e]; !ok {
		d.table[e] = s
	}
	return e
}

// dirService drains the directory queue until it blocks or empties
// (mirrors mesi.Directory.maybeStart/service: non-blocking read grants
// immediately re-service the queue).
func (d *meModel) dirService(n *meState) {
	for !n.busy && len(n.queue) > 0 {
		d.dirServiceOne(n)
	}
}

func (d *meModel) dirServiceOne(n *meState) {
	p := n.queue[0]
	n.queue = n.queue[1:]
	req := p.core
	if !p.wantM {
		d.record("dir", byte(n.dirState), "gets")
		switch n.dirState {
		case 'I':
			n.dirState = 'M'
			n.owner = req
			n.msgs = append(n.msgs, meMsg{kind: "data", src: -1, to: req, req: req, excl: true})
		case 'S':
			n.sharers[req] = true
			n.msgs = append(n.msgs, meMsg{kind: "data", src: -1, to: req, req: req})
		case 'M':
			owner := n.owner
			n.dirState = 'S'
			n.sharers[owner] = true
			n.sharers[req] = true
			n.owner = -1
			n.busy = true
			n.needAcks = 2
			n.msgs = append(n.msgs, meMsg{kind: "fwds", src: -1, to: owner, req: req})
		}
		return
	}
	d.record("dir", byte(n.dirState), "getm")
	switch n.dirState {
	case 'I':
		n.dirState = 'M'
		n.owner = req
		n.busy = true
		n.needAcks = 1
		n.msgs = append(n.msgs, meMsg{kind: "data", src: -1, to: req, req: req, unbl: true})
	case 'S':
		invs := 0
		for i, sh := range n.sharers {
			if sh && i != req {
				invs++
				n.msgs = append(n.msgs, meMsg{kind: "inv", src: -1, to: i, req: req})
			}
		}
		n.dirState = 'M'
		n.owner = req
		n.sharers = make([]bool, len(n.cores))
		n.busy = true
		n.needAcks = 1
		n.msgs = append(n.msgs, meMsg{kind: "data", src: -1, to: req, req: req, acks: invs, unbl: true})
	case 'M':
		owner := n.owner
		n.owner = req
		n.busy = true
		n.needAcks = 1
		n.msgs = append(n.msgs, meMsg{kind: "fwdm", src: -1, to: owner, req: req})
	}
}

// maybeComplete mirrors mesi.L1.maybeComplete.
func (d *meModel) maybeComplete(n *meState, core int) {
	c := &n.cores[core]
	t := c.txn
	if t == nil || !t.dataRecv || t.acksNeed < 0 || t.acksGot < t.acksNeed {
		return
	}
	d.record("core", byte(c.state), "complete")
	switch {
	case t.wantM:
		c.state = 'M'
	case t.excl:
		c.state = 'E'
	default:
		c.state = 'S'
	}
	c.opsLeft--
	if t.unblock {
		n.msgs = append(n.msgs, meMsg{kind: "unblock", src: core, to: -1, req: core})
	}
	c.txn = nil
}

func (d *meModel) successors(enc string) []string {
	s := d.table[enc]
	if s == nil {
		panic("verify: unknown state " + enc)
	}
	var out []string

	// 1. Core op issue.
	for i := range s.cores {
		c := &s.cores[i]
		if c.txn != nil || c.opsLeft == 0 {
			continue
		}
		// Read.
		{
			d.record("core", byte(c.state), "read")
			n := s.clone()
			nc := &n.cores[i]
			if nc.state != 'I' {
				nc.opsLeft--
			} else {
				nc.txn = &meTxn{wantM: false, acksNeed: -1}
				n.msgs = append(n.msgs, meMsg{kind: "gets", src: i, to: -1, req: i})
			}
			out = append(out, d.intern(n))
		}
		// Write.
		{
			d.record("core", byte(c.state), "write")
			n := s.clone()
			nc := &n.cores[i]
			if nc.state == 'M' || nc.state == 'E' {
				nc.state = 'M' // silent E->M upgrade
				nc.opsLeft--
			} else {
				nc.txn = &meTxn{wantM: true, acksNeed: -1}
				n.msgs = append(n.msgs, meMsg{kind: "getm", src: i, to: -1, req: i})
			}
			out = append(out, d.intern(n))
		}
	}

	// 1b. Evictions: silent for S; M/E writes back with a PutM that the
	// directory stale-acks if ownership already moved.
	for i := range s.cores {
		c := &s.cores[i]
		if !d.extended || c.txn != nil {
			continue
		}
		switch c.state {
		case 'S':
			d.record("core", 'S', "evict")
			n := s.clone()
			n.cores[i].state = 'I'
			out = append(out, d.intern(n))
		case 'M', 'E':
			d.record("core", byte(c.state), "evict")
			n := s.clone()
			n.cores[i].state = 'I'
			n.msgs = append(n.msgs, meMsg{kind: "putm", src: i, to: -1, req: i})
			out = append(out, d.intern(n))
		case 'I':
			// Nothing cached, nothing to evict.
		}
	}

	// 2. Message deliveries: the mesh is FIFO per (source, destination)
	// pair, so only the oldest message of each channel is deliverable.
	for mi := range s.msgs {
		blocked := false
		for mj := 0; mj < mi; mj++ {
			if s.msgs[mj].src == s.msgs[mi].src && s.msgs[mj].to == s.msgs[mi].to {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		n := s.clone()
		msg := n.msgs[mi]
		n.msgs = append(n.msgs[:mi], n.msgs[mi+1:]...)
		switch msg.kind {
		case "gets":
			n.queue = append(n.queue, meDirReq{core: msg.req, wantM: false})
			d.dirService(n)
		case "getm":
			n.queue = append(n.queue, meDirReq{core: msg.req, wantM: true})
			d.dirService(n)
		case "data":
			c := &n.cores[msg.to]
			if c.txn != nil {
				d.record("core", byte(c.state), "data")
				c.txn.dataRecv = true
				c.txn.excl = msg.excl
				c.txn.unblock = c.txn.unblock || msg.unbl
				c.txn.acksNeed = msg.acks
				d.maybeComplete(n, msg.to)
			}
		case "inv":
			c := &n.cores[msg.to]
			d.record("core", byte(c.state), "inv")
			if c.state == 'S' {
				c.state = 'I'
			}
			n.msgs = append(n.msgs, meMsg{kind: "invack", src: msg.to, to: msg.req})
		case "invack":
			c := &n.cores[msg.to]
			if c.txn != nil {
				d.record("core", byte(c.state), "invack")
				c.txn.acksGot++
				d.maybeComplete(n, msg.to)
			}
		case "fwds":
			c := &n.cores[msg.to]
			d.record("core", byte(c.state), "fwds")
			if c.state == 'M' || c.state == 'E' {
				c.state = 'S'
			}
			n.msgs = append(n.msgs,
				meMsg{kind: "data", src: msg.to, to: msg.req, req: msg.req, unbl: true},
				meMsg{kind: "ownerack", src: msg.to, to: -1})
		case "fwdm":
			c := &n.cores[msg.to]
			d.record("core", byte(c.state), "fwdm")
			c.state = 'I'
			n.msgs = append(n.msgs, meMsg{kind: "data", src: msg.to, to: msg.req, req: msg.req, unbl: true})
		case "putm":
			// Mirrors mesi.Directory.recvPut: only a current, unblocked
			// owner's writeback clears the entry; anything else is stale.
			d.record("dir", byte(n.dirState), "putm")
			if !n.busy && n.dirState == 'M' && n.owner == msg.req {
				n.dirState = 'I'
				n.owner = -1
			}
		case "unblock", "ownerack":
			d.record("dir", byte(n.dirState), "complete")
			n.needAcks--
			if n.needAcks <= 0 {
				n.busy = false
				d.dirService(n)
			}
		}
		out = append(out, d.intern(n))
	}
	return out
}

func (d *meModel) check(enc string) string {
	s := d.table[enc]
	if s == nil {
		return ""
	}
	owners, sharers := 0, 0
	for _, c := range s.cores {
		switch c.state {
		case 'M', 'E':
			owners++
		case 'S':
			sharers++
		case 'I':
			// Invalid copies are unconstrained.
		}
	}
	if owners > 1 {
		return "multiple M/E copies"
	}
	if owners == 1 && sharers > 0 {
		return "M/E coexists with S"
	}
	return ""
}

func (d *meModel) l1states(enc string) []string {
	s := d.table[enc]
	if s == nil {
		return nil
	}
	var out []string
	for _, c := range s.cores {
		label := string(rune(c.state))
		if t := c.txn; t != nil {
			label += fmt.Sprintf("+%t/%t/%d/%d/%t", t.wantM, t.dataRecv, t.acksNeed, t.acksGot, t.unblock)
		}
		out = append(out, label)
	}
	return out
}

func (d *meModel) quiescent(enc string) bool {
	s := d.table[enc]
	if s == nil {
		return false
	}
	if len(s.msgs) > 0 || s.busy || len(s.queue) > 0 {
		return false
	}
	for _, c := range s.cores {
		if c.txn != nil || c.opsLeft > 0 {
			return false
		}
	}
	return true
}
