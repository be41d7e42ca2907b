// Package mesi implements the baseline protocol of the paper: a full-map
// directory MESI with writer-initiated invalidations, a *blocking*
// directory (as in the GEMS implementation the paper compares against,
// §4.1), and non-blocking data stores at the core (§5.2, for a fair
// comparison with DeNovo).
//
// Structure: each tile has a private L1; the directory lives in the shared
// L2 banks, line-interleaved across tiles. Transactions:
//
//	GetS  — read miss. Directory I→E (exclusive grant), S→add sharer,
//	        M/E→forward to owner, owner downgrades to S and writes back.
//	GetM  — write miss/upgrade. Directory invalidates sharers (acks are
//	        collected at the requestor) or forwards to the owner.
//	PutM/PutE — dirty/clean-exclusive eviction writeback.
//
// The directory blocks a line while a transaction is in flight (requests
// queue behind it) and reopens on the requestor's Unblock — exactly the
// serialization DeNovo's non-blocking registry avoids.
package mesi

import (
	"denovosync/internal/cache"
	"denovosync/internal/mem"
	"denovosync/internal/noc"
	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

// L1 line states (cache.Line.LineState). Typed so that simlint's
// exhauststate analyzer verifies every switch over a line state covers all
// four (or panics explicitly): a fifth state added for a protocol
// extension can then never silently fall through a transition.
const (
	li cache.LineState = iota // Invalid (also: line absent)
	ls                        // Shared
	le                        // Exclusive clean
	lm                        // Modified
)

// Config wires a MESI system together.
type Config struct {
	Eng   *sim.Engine
	Net   *noc.Network
	Store *mem.Store
	DRAM  *mem.DRAM

	L1Size, L1Ways int

	// Latencies (cycles): L1 access, L2/directory access, remote-L1 tag
	// access for forwarded requests. Fitted to Table 1 (1 / 27 / 9).
	L1AccessLat, L2AccessLat, RemoteL1Lat sim.Cycle
}

// txn is an outstanding L1 miss (one per line). Records are recycled
// through the L1's free list together with their waiter storage (see
// allocTxn), so a miss allocates nothing once the L1 is warm.
type txn struct {
	line     proto.Addr
	wantM    bool
	dataRecv bool
	excl     bool // exclusive grant (GetS → E)
	unblock  bool // the directory blocked for this txn and awaits Unblock
	acksNeed int  // -1 until the Data/AckCount message announces the count
	acksGot  int
	epoch    uint64 // directory grant epoch (exclusive grants only)
	waiters  []retry

	// cap bounds the state a delayed grant may still install (li < ls <
	// lm). Non-blocking GetS grants (directory E/S grants served from
	// I/S, which reopen the line immediately) can be overtaken by an
	// invalidation or an owner-forward from a transaction the directory
	// serialized *after* the grant — message classes only preserve
	// per-class point-to-point order. The classic IS_D-receives-Inv
	// race: the core must ack (and respond to forwards) right away, and
	// its late fill must then complete the stalled loads without
	// re-installing the ownership the later transaction already took.
	cap cache.LineState
}

// L1 is one core's private MESI cache controller.
type L1 struct {
	cfg  *Config
	eng  *sim.Engine // cfg.Eng
	id   proto.CoreID
	node proto.NodeID
	dir  *Directory

	cache   *cache.Cache
	txns    map[proto.Addr]*txn
	txnFree []*txn // completed transactions, for reuse (see allocTxn)

	// inbox holds the messages in flight to this L1, including the
	// delayed work it schedules to itself; recvFn (recv, bound once in
	// NewL1) receives them.
	inbox  proto.Inbox[msg]
	recvFn func(uint64)

	pendingStores int
	drainWaiters  []func()

	// storeFwd is the store→load forwarding buffer: per word, the values of
	// this core's in-flight non-blocking stores, oldest first. A store that
	// misses (e.g. an S→M upgrade) retires at the core long before its
	// coherence transaction commits the value to the line; a younger load
	// from the same core must still see it (single-thread program order), so
	// the hit check consults this buffer before the cached snapshot.
	// fwdSpare recycles the slices of drained words, so that a store that
	// hits allocates nothing.
	storeFwd map[proto.Addr][]uint64
	fwdSpare [][]uint64

	// storeDoneFn retires a non-blocking store at protocol commit; its
	// argument is the stored word (see access). Bound once in NewL1, so
	// that issuing a store allocates no continuation.
	storeDoneFn func(uint64)

	epochs map[proto.Addr]uint64 // per line, disturbance counter (WaitDisturb)
	// disturbs holds, per line, the WaitDisturb callbacks; a line's list
	// keeps its storage once drained.
	disturbs map[proto.Addr][]func()

	// ownEpoch records, per E/M-resident line, the directory epoch of the
	// exclusive grant that installed it. Evictions return it on the Put so
	// the directory can tell a current writeback from a stale one (see
	// Directory.recvPut). Distinct from `epochs` above, which counts local
	// disturbances for sync-load retry wakeups.
	ownEpoch map[proto.Addr]uint64

	// obs, when set, receives one (controller, state, event) hit per
	// handler activation (see coverage.go).
	obs TransitionObserver

	stats proto.L1Stats
}

// NewL1 constructs the L1 for core id on node node.
func NewL1(cfg *Config, id proto.CoreID, node proto.NodeID) *L1 {
	c := &L1{
		cfg:      cfg,
		eng:      cfg.Eng,
		id:       id,
		node:     node,
		cache:    cache.New(cfg.L1Size, cfg.L1Ways),
		txns:     make(map[proto.Addr]*txn),
		epochs:   make(map[proto.Addr]uint64),
		ownEpoch: make(map[proto.Addr]uint64),
		disturbs: make(map[proto.Addr][]func()),
		storeFwd: make(map[proto.Addr][]uint64),
	}
	c.storeDoneFn = func(word uint64) {
		c.popStoreFwd(proto.Addr(word))
		c.storeCommitted()
	}
	c.recvFn = c.recv
	return c
}

// SetDirectory wires the shared directory (after construction) and
// registers this L1 with it as core c.id.
func (c *L1) SetDirectory(d *Directory) {
	c.dir = d
	for len(d.l1s) <= int(c.id) {
		d.l1s = append(d.l1s, nil)
	}
	d.l1s[c.id] = c
}

// recv is this L1's receive function: it runs a delivered message's
// handler, reading the message in place, and then frees its inbox slot.
func (c *L1) recv(slot uint64) {
	m := c.inbox.At(slot)
	switch m.kind {
	case mData:
		c.recvData(m.addr, m.acks, m.excl, m.unblock, m.epoch)
	case mInvAck:
		c.recvInvAck(m.addr)
	case mInv:
		c.recvInv(m.addr, m.req)
	case mFwdGetS:
		c.recvFwdGetS(m.addr, m.req)
	case mFwdGetM:
		c.recvFwdGetM(m.addr, m.req, m.epoch)
	case mPutAck:
		// The L1 keeps no writeback buffer: committed values are always
		// recoverable, so the ack needs no handler.
	case mIssue:
		c.issue(m.addr, m.wantM)
	case mAnswerGetS:
		c.answerGetS(m.addr, m.req)
	case mAnswerGetM:
		c.answerGetM(m.addr, m.req, m.epoch)
	default:
		panic("mesi: L1 received a directory message")
	}
	c.inbox.Free(slot)
}

// allocTxn returns a transaction record for a miss on line, recycled from
// the free list when one is available.
func (c *L1) allocTxn(line proto.Addr, wantM bool) *txn {
	var t *txn
	if n := len(c.txnFree); n > 0 {
		t = c.txnFree[n-1]
		c.txnFree = c.txnFree[:n-1]
	} else {
		t = &txn{}
	}
	*t = txn{line: line, wantM: wantM, acksNeed: -1, cap: lm, waiters: t.waiters}
	return t
}

// freeTxn returns a completed transaction to the free list, keeping its
// waiter storage and dropping what the waiters referenced.
func (c *L1) freeTxn(t *txn) {
	clear(t.waiters)
	t.waiters = t.waiters[:0]
	c.txnFree = append(c.txnFree, t)
}

// Stats returns the hit/miss counters.
func (c *L1) Stats() *proto.L1Stats { return &c.stats }

// BackoffStallCycles is always zero for MESI (no hardware backoff).
func (c *L1) BackoffStallCycles() sim.Cycle { return 0 }

// SelfInvalidate is a no-op: MESI relies on writer-initiated invalidations.
func (c *L1) SelfInvalidate(proto.RegionSet) {}

// SignatureRelease is a no-op on MESI (no self-invalidation to direct).
func (c *L1) SignatureRelease(proto.Addr) {}

// SignatureAcquire is a no-op on MESI.
func (c *L1) SignatureAcquire(proto.Addr) {}

// Epoch returns the disturbance counter for addr's line.
func (c *L1) Epoch(addr proto.Addr) uint64 { return c.epochs[addr.Line()] }

// WaitDisturb calls fn when the line's epoch moves past epoch.
func (c *L1) WaitDisturb(addr proto.Addr, epoch uint64, fn func()) {
	line := addr.Line()
	if c.epochs[line] != epoch {
		c.eng.Schedule(0, fn)
		return
	}
	c.disturbs[line] = append(c.disturbs[line], fn)
}

func (c *L1) disturb(line proto.Addr) {
	c.epochs[line]++
	ws := c.disturbs[line]
	if len(ws) == 0 {
		return
	}
	for _, fn := range ws {
		c.eng.Schedule(0, fn)
	}
	clear(ws)
	c.disturbs[line] = ws[:0]
}

// OnWritesDrained calls fn once all non-blocking stores have committed.
func (c *L1) OnWritesDrained(fn func()) {
	if c.pendingStores == 0 {
		c.eng.Schedule(0, fn)
		return
	}
	c.drainWaiters = append(c.drainWaiters, fn)
}

// popStoreFwd retires the oldest forwarding-buffer entry for word. Stores
// to one word commit in issue order (same-line transactions serialize
// through the txn waiter list), so FIFO retirement matches commit order.
func (c *L1) popStoreFwd(word proto.Addr) {
	vs := c.storeFwd[word]
	if len(vs) <= 1 {
		delete(c.storeFwd, word)
		c.fwdSpare = append(c.fwdSpare, vs[:0])
		return
	}
	c.storeFwd[word] = vs[1:]
}

func (c *L1) storeCommitted() {
	c.pendingStores--
	if c.pendingStores == 0 {
		ws := c.drainWaiters
		for _, fn := range ws {
			c.eng.Schedule(0, fn)
		}
		clear(ws)
		c.drainWaiters = ws[:0]
	}
}

// Access starts a memory access (see proto.L1Controller).
func (c *L1) Access(req proto.Request) {
	if req.Kind == proto.DataStore || req.Kind == proto.SyncStore {
		// Non-blocking store (§5.2: the GEMS MESI was modified to support
		// non-blocking writes for a fair comparison with DeNovo): the core
		// retires it after the L1 access cycle; the coherence transaction
		// — including the invalidation fan-out — completes in the
		// background. The invalidation latency still lands on the critical
		// path of the *next* acquirer, per §6.1.1.
		c.pendingStores++
		word := req.Addr.Word()
		vs, ok := c.storeFwd[word]
		if n := len(c.fwdSpare); !ok && n > 0 {
			vs = c.fwdSpare[n-1] // a drained word's slice (see popStoreFwd)
			c.fwdSpare = c.fwdSpare[:n-1]
		}
		c.storeFwd[word] = append(vs, req.Value)
		c.eng.ScheduleCall(c.cfg.L1AccessLat, req.Done, 0)
		c.access(req, c.storeDoneFn, true)
		return
	}
	c.access(req, req.Done, true)
}

// access runs one attempt; commit fires exactly once at protocol commit,
// with the value read — or, for a store, with the stored word, which
// storeDoneFn retires from the forwarding buffer. first distinguishes the
// initial issue (charged an L1 access cycle and counted in hit/miss stats)
// from post-miss retries.
func (c *L1) access(req proto.Request, commit func(uint64), first bool) {
	line := c.cache.Lookup(req.Addr)
	state := li
	if line != nil {
		state = line.LineState
	}
	c.observeAccess(state, req.Kind)
	wi := req.Addr.WordIndex()

	finish := func(v uint64) {
		if first {
			c.eng.ScheduleCall(c.cfg.L1AccessLat, commit, v)
		} else {
			commit(v)
		}
	}

	switch req.Kind {
	case proto.DataLoad, proto.SyncLoad:
		// Store→load forwarding: the youngest in-flight store to this word
		// from this core supplies the value, whatever the line state — the
		// cached snapshot may predate the store's still-uncommitted upgrade.
		if vs := c.storeFwd[req.Addr.Word()]; len(vs) > 0 {
			if first {
				c.stats.Hit(req.Kind)
			}
			finish(vs[len(vs)-1])
			return
		}
		if state != li {
			if first {
				c.stats.Hit(req.Kind)
			}
			c.cache.Touch(line)
			finish(line.Values[wi])
			return
		}
	case proto.DataStore, proto.SyncStore, proto.SyncRMW:
		if state == lm || state == le {
			if first {
				c.stats.Hit(req.Kind)
			}
			line.LineState = lm // silent E→M upgrade
			c.cache.Touch(line)
			old := c.cfg.Store.Read(req.Addr)
			switch req.Kind {
			case proto.SyncRMW:
				if nv, doStore := proto.ApplyRMW(&req, old); doStore {
					line.Values[wi] = nv
					c.cfg.Store.Write(req.Addr, nv)
				}
				finish(old)
			default:
				line.Values[wi] = req.Value
				c.cfg.Store.Write(req.Addr, req.Value)
				finish(uint64(req.Addr.Word()))
			}
			return
		}
	}

	// Miss.
	if first {
		c.stats.Miss(req.Kind)
	}
	wantM := req.Kind.IsWrite()
	if t, ok := c.txns[req.Addr.Line()]; ok {
		t.waiters = append(t.waiters, retry{req: req, commit: commit})
		return
	}
	t := c.allocTxn(req.Addr.Line(), wantM)
	t.waiters = append(t.waiters, retry{req: req, commit: commit})
	c.txns[t.line] = t
	c.eng.ScheduleCall(c.cfg.L1AccessLat, c.recvFn, c.inbox.Post(msg{kind: mIssue, addr: t.line, wantM: wantM}))
}

// issue sends a miss's GetS or GetM to the line's directory bank.
func (c *L1) issue(line proto.Addr, wantM bool) {
	kind, class := mGetS, proto.ClassLD
	if wantM {
		kind, class = mGetM, proto.ClassST
	}
	c.cfg.Net.Send(c.node, c.dir.NodeFor(line), class, proto.CtrlFlits,
		c.dir.recvFn, c.dir.inbox.Post(msg{kind: kind, addr: line, req: c}))
}

// recvData handles the data (or ack-count) grant of an outstanding miss.
// epoch is the directory's grant epoch for exclusive grants (E or M), zero
// for plain Shared fills; the L1 returns it on a later eviction Put.
func (c *L1) recvData(line proto.Addr, acks int, excl, unblock bool, epoch uint64) {
	t := c.txns[line]
	if t == nil {
		panic("mesi: data for absent transaction")
	}
	c.observe(c.lineState(line), "recvData")
	t.dataRecv = true
	t.excl = excl
	t.unblock = unblock
	t.acksNeed = acks
	t.epoch = epoch
	c.maybeComplete(t)
}

// recvInvAck counts an invalidation ack collected at the requestor.
func (c *L1) recvInvAck(line proto.Addr) {
	t := c.txns[line]
	if t == nil {
		panic("mesi: inv-ack for absent transaction")
	}
	c.observe(c.lineState(line), "recvInvAck")
	t.acksGot++
	c.maybeComplete(t)
}

//atlas:unreachable mesi.L1 le maybeComplete: a resident E line never has a miss transaction outstanding — misses issue only from I or S
//atlas:unreachable mesi.L1 lm maybeComplete: a resident M line never has a miss transaction outstanding — misses issue only from I or S
func (c *L1) maybeComplete(t *txn) {
	if !t.dataRecv || t.acksNeed < 0 || t.acksGot < t.acksNeed {
		return
	}
	c.observe(c.lineState(t.line), "maybeComplete")
	delete(c.txns, t.line)

	// Install, reusing the resident line on an S→M upgrade, otherwise
	// evicting a victim. Snapshot committed values at fill time.
	v := c.cache.Lookup(t.line)
	if v == nil {
		v = c.cache.Victim(t.line)
		if v.Present {
			c.evict(v)
		}
		c.cache.Install(v, t.line)
	} else {
		c.cache.Touch(v)
	}
	st := ls
	switch {
	case t.wantM:
		st = lm
	case t.excl:
		st = le
	}
	// A grant overtaken by a later-serialized invalidation or forward
	// (see txn.cap) must not re-install the state that transaction took
	// away. A cap of li still installs Shared for the duration of this
	// event so the stalled loads below hit the fill once; the line is
	// dropped before any other event can observe it.
	useOnce := false
	if !t.wantM && t.cap < st {
		st = t.cap
		if st == li {
			st, useOnce = ls, true
		}
	}
	v.LineState = st
	vals := c.cfg.Store.ReadLine(t.line)
	v.Values = vals
	if st == lm || st == le {
		c.ownEpoch[t.line] = t.epoch
	} else {
		delete(c.ownEpoch, t.line)
	}

	// Reopen the directory (ownership-transfer transactions only), then
	// rerun the stalled accesses.
	if t.unblock {
		class := proto.ClassLD
		if t.wantM {
			class = proto.ClassST
		}
		c.cfg.Net.Send(c.node, c.dir.NodeFor(t.line), class, proto.CtrlFlits,
			c.dir.recvFn, c.dir.inbox.Post(msg{kind: mUnblock, addr: t.line}))
	}
	for _, w := range t.waiters {
		c.access(w.req, w.commit, false)
	}
	if useOnce {
		if l := c.cache.Lookup(t.line); l != nil && l.LineState == ls {
			c.cache.Evict(l)
			c.disturb(t.line)
		}
	}
	c.freeTxn(t)
}

// evict removes a victim line, writing back M (data) or E (clean notice).
//
//atlas:unreachable mesi.L1 li evict: present victims are never Invalid — invalidations and downgrades remove the line outright, so capacity victims are always S/E/M
func (c *L1) evict(v *cache.Line) {
	line := v.Addr
	state := v.LineState
	c.observe(state, "evict")
	c.cache.Evict(v)
	c.stats.Evicted++
	c.disturb(line)
	if state == lm || state == le {
		ep := c.ownEpoch[line]
		delete(c.ownEpoch, line)
		flits := proto.CtrlFlits
		if state == lm {
			flits = proto.LineDataFlits
			c.stats.WB++
		}
		c.cfg.Net.Send(c.node, c.dir.NodeFor(line), proto.ClassWB, flits,
			c.dir.recvFn, c.dir.inbox.Post(msg{kind: mPut, addr: line, req: c, dirty: state == lm, epoch: ep}))
	}
}

// recvInv handles a directory invalidation on behalf of requestor req:
// drop the line (if present) and ack directly to the requestor.
func (c *L1) recvInv(line proto.Addr, req *L1) {
	c.observe(c.lineState(line), "recvInv")
	if l := c.cache.Lookup(line); l != nil {
		c.cache.Evict(l)
		c.disturb(line)
	}
	delete(c.ownEpoch, line)
	// An invalidation overlapping our own read miss kills the in-flight
	// grant (see txn.cap). Write misses are exempt: the directory blocks
	// on GetM, so an overlapping invalidation can only stem from an
	// *earlier* write that targeted our stale Shared copy — our own
	// grant, serialized later, stays good.
	if t := c.txns[line]; t != nil && !t.wantM {
		t.cap = li
	}
	c.cfg.Net.Send(c.node, req.node, proto.ClassInv, proto.CtrlFlits,
		req.recvFn, req.inbox.Post(msg{kind: mInvAck, addr: line}))
}

// recvFwdGetS services a read forwarded by the directory: downgrade to S,
// send data to the requestor and the writeback/ack to the directory. If the
// line is gone (eviction raced the forward) respond from the committed
// image; the directory's later PutM from us will be recognized as stale.
//
//atlas:unreachable mesi.L1 ls recvFwdGetS: the directory forwards GetS only to the pending exclusive owner and blocks until the handoff acks, so the target is E, M, or already evicted — never observed in S
func (c *L1) recvFwdGetS(line proto.Addr, req *L1) {
	c.eng.ScheduleCall(c.cfg.RemoteL1Lat, c.recvFn, c.inbox.Post(msg{kind: mAnswerGetS, addr: line, req: req}))
}

// answerGetS answers a forwarded read once the remote-L1 latency has
// passed (see recvFwdGetS).
func (c *L1) answerGetS(line proto.Addr, req *L1) {
	c.observe(c.lineState(line), "recvFwdGetS")
	wbFlits := proto.CtrlFlits
	if l := c.cache.Lookup(line); l != nil && (l.LineState == lm || l.LineState == le) {
		if l.LineState == lm {
			wbFlits = proto.LineDataFlits
		}
		l.LineState = ls
		delete(c.ownEpoch, line) // S evictions are silent: no Put to stamp
	}
	// The forward chases an exclusive grant whose fill is still in
	// flight: the late fill may install at most Shared (txn.cap).
	if t := c.txns[line]; t != nil && !t.wantM && t.cap > ls {
		t.cap = ls
	}
	c.cfg.Net.Send(c.node, req.node, proto.ClassLD, proto.LineDataFlits,
		req.recvFn, req.inbox.Post(msg{kind: mData, addr: line, unblock: true}))
	c.cfg.Net.Send(c.node, c.dir.NodeFor(line), proto.ClassWB, wbFlits,
		c.dir.recvFn, c.dir.inbox.Post(msg{kind: mOwnerAck, addr: line}))
}

// recvFwdGetM services a write forwarded by the directory: invalidate and
// send data to the requestor. epoch is the directory's grant epoch for the
// requestor's new ownership (the data response doubles as the grant).
func (c *L1) recvFwdGetM(line proto.Addr, req *L1, epoch uint64) {
	c.eng.ScheduleCall(c.cfg.RemoteL1Lat, c.recvFn, c.inbox.Post(msg{kind: mAnswerGetM, addr: line, req: req, epoch: epoch}))
}

// answerGetM answers a forwarded write once the remote-L1 latency has
// passed (see recvFwdGetM).
func (c *L1) answerGetM(line proto.Addr, req *L1, epoch uint64) {
	c.observe(c.lineState(line), "recvFwdGetM")
	if l := c.cache.Lookup(line); l != nil {
		c.cache.Evict(l)
		c.disturb(line)
	}
	delete(c.ownEpoch, line)
	// The forward chases an exclusive grant whose fill is still in
	// flight: the new writer owns the line now, so the late fill must not
	// install at all (txn.cap).
	if t := c.txns[line]; t != nil && !t.wantM {
		t.cap = li
	}
	c.cfg.Net.Send(c.node, req.node, proto.ClassST, proto.LineDataFlits,
		req.recvFn, req.inbox.Post(msg{kind: mData, addr: line, unblock: true, epoch: epoch}))
}

var _ proto.L1Controller = (*L1)(nil)
