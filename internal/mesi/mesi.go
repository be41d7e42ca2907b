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

// fwdStore is one entry of the store→load forwarding buffer: a word and
// the value an in-flight non-blocking store writes to it.
type fwdStore struct {
	word proto.Addr
	val  uint64
}

// spinWatch is the L1's disturbance watch (see Epoch): the line its core
// last sampled, whether that line has been disturbed since, and the
// WaitDisturb callbacks to wake when it is. The waiter list keeps its
// storage once drained.
type spinWatch struct {
	line      proto.Addr
	sample    uint64 // bumped by every Epoch
	disturbed bool
	waiters   []func()
}

// L1 is one core's private MESI cache controller.
type L1 struct {
	cfg  *Config
	eng  *sim.Engine // cfg.Eng
	id   proto.CoreID
	node proto.NodeID
	dir  *Directory

	cache *cache.Cache
	// txns is the outstanding-miss file, one record per line, searched
	// linearly (findTxn). A core keeps few misses outstanding, so
	// scanning a short slice beats hashing.
	txns    []*txn
	txnFree []*txn // completed transactions, for reuse (see allocTxn)

	// inbox holds the messages in flight to this L1, including the
	// delayed work it schedules to itself; recvFn (recv, bound once in
	// NewL1) receives them.
	inbox  proto.Inbox[msg]
	recvFn func(uint64)

	pendingStores int
	drainWaiters  []func()

	// storeFwd is the store→load forwarding buffer: this core's in-flight
	// non-blocking stores, in issue order. A store that misses (e.g. an
	// S→M upgrade) retires at the core long before its coherence
	// transaction commits the value to the line; a younger load from the
	// same core must still see it (single-thread program order), so the
	// hit check consults this buffer before the cached snapshot.
	storeFwd []fwdStore

	// storeDoneFn retires a non-blocking store at protocol commit; its
	// argument is the stored word (see access). Bound once in NewL1, so
	// that issuing a store allocates no continuation.
	storeDoneFn func(uint64)

	watch spinWatch

	// obs, when set, receives one (controller, state, event) hit per
	// handler activation (see coverage.go).
	obs TransitionObserver

	stats proto.L1Stats
}

// NewL1 constructs the L1 for core id on node node.
func NewL1(cfg *Config, id proto.CoreID, node proto.NodeID) *L1 {
	c := &L1{
		cfg:   cfg,
		eng:   cfg.Eng,
		id:    id,
		node:  node,
		cache: cache.New(cfg.L1Size, cfg.L1Ways),
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
// waiter storage. The list is truncated, not cleared: what it references
// (bound continuations, requests' continuations) lives as long as the
// machine, as in a freed proto.Inbox slot.
func (c *L1) freeTxn(t *txn) {
	t.waiters = t.waiters[:0]
	c.txnFree = append(c.txnFree, t)
}

// findTxn returns line's outstanding transaction, or nil.
func (c *L1) findTxn(line proto.Addr) *txn {
	for _, t := range c.txns {
		if t.line == line {
			return t
		}
	}
	return nil
}

// dropTxn removes t from the outstanding-miss file, so that the accesses
// it completes can start a new miss on its line; freeTxn recycles it once
// they have run.
func (c *L1) dropTxn(t *txn) {
	last := len(c.txns) - 1
	for i, u := range c.txns {
		if u == t {
			c.txns[i] = c.txns[last]
			c.txns = c.txns[:last]
			return
		}
	}
	panic("mesi: dropping a transaction that is not outstanding")
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

// Epoch points the L1's watch at addr's line and returns a new sample
// number (see proto.L1Controller). The superseded sample counts as
// disturbed: its waiters wake at once.
func (c *L1) Epoch(addr proto.Addr) uint64 {
	c.disturb(c.watch.line)
	w := &c.watch
	w.line, w.disturbed = addr.Line(), false
	w.sample++
	return w.sample
}

// WaitDisturb calls fn once addr's line is disturbed after sample was
// taken: at once if it already was, or if sample is not the watch's
// current sample of that line.
func (c *L1) WaitDisturb(addr proto.Addr, sample uint64, fn func()) {
	w := &c.watch
	if w.disturbed || sample != w.sample || addr.Line() != w.line {
		c.eng.Schedule(0, fn)
		return
	}
	w.waiters = append(w.waiters, fn)
}

// disturb records that line was invalidated or evicted under the core.
func (c *L1) disturb(line proto.Addr) {
	if w := &c.watch; line == w.line {
		w.disturbed = true
		for _, fn := range w.waiters {
			c.eng.Schedule(0, fn)
		}
		clear(w.waiters)
		w.waiters = w.waiters[:0]
	}
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
	for i := range c.storeFwd {
		if c.storeFwd[i].word == word {
			c.storeFwd = append(c.storeFwd[:i], c.storeFwd[i+1:]...)
			return
		}
	}
}

// forwarded returns the value of this core's youngest in-flight store to
// word, if it has one.
func (c *L1) forwarded(word proto.Addr) (uint64, bool) {
	for i := len(c.storeFwd) - 1; i >= 0; i-- {
		if c.storeFwd[i].word == word {
			return c.storeFwd[i].val, true
		}
	}
	return 0, false
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
		c.storeFwd = append(c.storeFwd, fwdStore{word: req.Addr.Word(), val: req.Value})
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
		if v, ok := c.forwarded(req.Addr.Word()); ok {
			if first {
				c.stats.Hit(req.Kind)
			}
			finish(v)
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
	if t := c.findTxn(req.Addr.Line()); t != nil {
		t.waiters = append(t.waiters, retry{req: req, commit: commit})
		return
	}
	t := c.allocTxn(req.Addr.Line(), wantM)
	t.waiters = append(t.waiters, retry{req: req, commit: commit})
	c.txns = append(c.txns, t)
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
	t := c.findTxn(line)
	if t == nil {
		panic("mesi: data for absent transaction")
	}
	c.observeLine(line, "recvData")
	t.dataRecv = true
	t.excl = excl
	t.unblock = unblock
	t.acksNeed = acks
	t.epoch = epoch
	c.maybeComplete(t)
}

// recvInvAck counts an invalidation ack collected at the requestor.
func (c *L1) recvInvAck(line proto.Addr) {
	t := c.findTxn(line)
	if t == nil {
		panic("mesi: inv-ack for absent transaction")
	}
	c.observeLine(line, "recvInvAck")
	t.acksGot++
	c.maybeComplete(t)
}

//atlas:unreachable mesi.L1 le maybeComplete: a resident E line never has a miss transaction outstanding — misses issue only from I or S
//atlas:unreachable mesi.L1 lm maybeComplete: a resident M line never has a miss transaction outstanding — misses issue only from I or S
func (c *L1) maybeComplete(t *txn) {
	if !t.dataRecv || t.acksNeed < 0 || t.acksGot < t.acksNeed {
		return
	}
	c.observeLine(t.line, "maybeComplete")
	c.dropTxn(t)

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
	v.Values = *c.cfg.Store.ReadLine(t.line)
	v.Grant = t.epoch // meaningful only while the line is E or M

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
	ep := v.Grant
	c.observe(state, "evict")
	c.cache.Evict(v)
	c.stats.Evicted++
	c.disturb(line)
	if state == lm || state == le {
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
	c.observeLine(line, "recvInv")
	if l := c.cache.Lookup(line); l != nil {
		c.cache.Evict(l)
		c.disturb(line)
	}
	// An invalidation overlapping our own read miss kills the in-flight
	// grant (see txn.cap). Write misses are exempt: the directory blocks
	// on GetM, so an overlapping invalidation can only stem from an
	// *earlier* write that targeted our stale Shared copy — our own
	// grant, serialized later, stays good.
	if t := c.findTxn(line); t != nil && !t.wantM {
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
	c.observeLine(line, "recvFwdGetS")
	wbFlits := proto.CtrlFlits
	if l := c.cache.Lookup(line); l != nil && (l.LineState == lm || l.LineState == le) {
		if l.LineState == lm {
			wbFlits = proto.LineDataFlits
		}
		l.LineState = ls // S evictions are silent: no Put to stamp
	}
	// The forward chases an exclusive grant whose fill is still in
	// flight: the late fill may install at most Shared (txn.cap).
	if t := c.findTxn(line); t != nil && !t.wantM && t.cap > ls {
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
	c.observeLine(line, "recvFwdGetM")
	if l := c.cache.Lookup(line); l != nil {
		c.cache.Evict(l)
		c.disturb(line)
	}
	// The forward chases an exclusive grant whose fill is still in
	// flight: the new writer owns the line now, so the late fill must not
	// install at all (txn.cap).
	if t := c.findTxn(line); t != nil && !t.wantM {
		t.cap = li
	}
	c.cfg.Net.Send(c.node, req.node, proto.ClassST, proto.LineDataFlits,
		req.recvFn, req.inbox.Post(msg{kind: mData, addr: line, unblock: true, epoch: epoch}))
}

var _ proto.L1Controller = (*L1)(nil)
