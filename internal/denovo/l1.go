package denovo

import (
	"denovosync/internal/cache"
	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

// parkedFwd is a forwarded registration that arrived while this L1's own
// registration for the word was still in flight: it waits in the MSHR and
// is serviced when the ack lands — the distributed registration queue of
// §4.1 (after [12, 13, 34]).
type parkedFwd struct {
	kind proto.AccessKind
	from *L1
}

// wtxn is an outstanding word-granularity miss. Records are recycled
// through the L1's free list together with their list storage (see
// allocTxn), so a miss allocates nothing once the L1 is warm.
type wtxn struct {
	word   proto.Addr
	kind   proto.AccessKind
	isReg  bool // registration (writes + sync reads) vs. plain data read
	region proto.RegionID

	waiters []retry        // access retries to run after the fill/ack
	onAck   []func(uint64) // data-store commits, called with 0 on the ack
	parked  []parkedFwd
}

// wbEntry is a coherence unit whose eviction writeback the registry has
// not acked yet, with the accesses that wait for the ack.
type wbEntry struct {
	unit    proto.Addr
	waiters []retry
}

// spinWatch is the L1's disturbance watch (see Epoch): the word its core
// last sampled, whether that word has been disturbed since, and the
// WaitDisturb callbacks to wake when it is. The waiter list keeps its
// storage once drained.
type spinWatch struct {
	word      proto.Addr
	sample    uint64 // bumped by every Epoch
	disturbed bool
	waiters   []func()
}

// L1 is one core's private DeNovo cache controller, implementing
// DeNovoSync0 (cfg.Backoff = false) or DeNovoSync (true).
type L1 struct {
	cfg  *Config
	eng  *sim.Engine // cfg.Eng
	id   proto.CoreID
	node proto.NodeID
	reg  *Registry

	cache *cache.Cache
	// txns is the outstanding-miss file: one record per coherence unit
	// with a registration in flight and per word with a data read in
	// flight, searched linearly (findTxn). A core keeps few misses
	// outstanding, so scanning a short slice beats hashing.
	txns    []*wtxn
	txnFree []*wtxn // completed transactions, for reuse (see allocTxn)
	regions proto.RegionMapper

	// inbox holds the messages in flight to this L1, including the
	// delayed work it schedules to itself; recvFn (recv, bound once in
	// NewL1) receives them.
	inbox  proto.Inbox[msg]
	recvFn func(uint64)
	// fills holds the word values of the data fills in flight to this
	// L1: a sender claims a slot, fills it in place and names it in the
	// mDataFill message, and recvDataFill frees it.
	fills proto.Inbox[lineVals]

	pendingStores int
	drainWaiters  []func()

	// storeDoneFn retires a non-blocking store once its registration
	// completes. Bound once in NewL1, so that issuing a store allocates no
	// continuation.
	storeDoneFn func(uint64)

	watch spinWatch

	// wbs holds the coherence units whose eviction writeback has not been
	// acked by the registry yet; re-registrations of those units wait
	// (see registry.recvWB for the deadlock this prevents).
	wbs []wbEntry
	// wbBound records, per coherence unit, the registry serial carried by
	// the last writeback ack. A forwarded registration stamped with an
	// older serial was generated before that writeback serialized, so it
	// targets ownership this core has already relinquished: it must be
	// answered from the committed image, never parked behind (or allowed
	// to downgrade) a registration issued after the ack. Message classes
	// only guarantee per-class point-to-point order, so such a forward
	// can legally arrive arbitrarily late (see recvFwdReg).
	wbBound map[proto.Addr]uint64

	// writeSig accumulates the word addresses this core has written since
	// its last release — the DeNovoND hardware write signature.
	writeSig proto.Signature

	// Hardware backoff state (§4.2). backoffCtr delays sync-read misses to
	// Valid words; incCtr is its adaptive increment; remoteSyncReads counts
	// incoming remote sync-read registrations toward increment growth.
	backoffCtr      sim.Cycle
	incCtr          sim.Cycle
	remoteSyncReads int
	backoffStall    sim.Cycle

	// obs, when set, receives one (controller, state, event) hit per
	// handler activation (see coverage.go).
	obs TransitionObserver

	stats proto.L1Stats
}

// NewL1 constructs the DeNovo L1 for core id on node node. regions may be
// nil (all data in region 0).
func NewL1(cfg *Config, id proto.CoreID, node proto.NodeID, regions proto.RegionMapper) *L1 {
	c := &L1{
		cfg:     cfg,
		eng:     cfg.Eng,
		id:      id,
		node:    node,
		cache:   cache.New(cfg.L1Size, cfg.L1Ways),
		regions: regions,
		wbBound: make(map[proto.Addr]uint64),
		incCtr:  cfg.initialIncrement(),
	}
	c.storeDoneFn = func(uint64) { c.storeCommitted() }
	c.recvFn = c.recv
	return c
}

// recv is this L1's receive function: it runs a delivered message's
// handler, reading the message in place, and then frees its inbox slot.
func (c *L1) recv(slot uint64) {
	m := c.inbox.At(slot)
	switch m.kind {
	case mFwdDataRead:
		c.recvFwdDataRead(m.addr, m.from)
	case mFwdReg:
		c.recvFwdReg(m.addr, m.akind, m.from, m.serial)
	case mRegGrant:
		// The registry's ack carries the committed value as of delivery.
		c.recvRegAck(m.addr, m.akind, c.cfg.Store.Read(m.addr))
	case mRegAck:
		c.recvRegAck(m.addr, m.akind, m.val)
	case mWBAck:
		c.recvWBAck(m.addr, m.mask, m.serial)
	case mDataFill:
		c.recvDataFill(m.addr, m.mask, uint64(m.fill))
	case mSendReg:
		c.issueReg(m.addr, m.akind)
	case mReadMiss:
		c.issueRead(m.addr)
	case mAnswerRead:
		c.answerRead(m.addr, m.from)
	case mServiceFwd:
		c.serviceFwd(m.akind, m.from, m.addr, m.stale)
	default:
		panic("denovo: L1 received a registry message")
	}
	c.inbox.Free(slot)
}

// allocTxn returns a transaction record for word, recycled from the free
// list when one is available.
func (c *L1) allocTxn(word proto.Addr, kind proto.AccessKind, isReg bool, region proto.RegionID) *wtxn {
	var t *wtxn
	if n := len(c.txnFree); n > 0 {
		t = c.txnFree[n-1]
		c.txnFree = c.txnFree[:n-1]
	} else {
		t = &wtxn{}
	}
	t.word, t.kind, t.isReg, t.region = word, kind, isReg, region
	return t
}

// freeTxn returns a completed transaction to the free list, keeping its
// list storage and dropping what the lists referenced.
func (c *L1) freeTxn(t *wtxn) {
	clear(t.waiters)
	clear(t.onAck)
	clear(t.parked)
	t.waiters, t.onAck, t.parked = t.waiters[:0], t.onAck[:0], t.parked[:0]
	c.txnFree = append(c.txnFree, t)
}

// findTxn returns the outstanding transaction for addr (a coherence unit
// for registrations, a word for data reads), or nil.
func (c *L1) findTxn(addr proto.Addr) *wtxn {
	for _, t := range c.txns {
		if t.word == addr {
			return t
		}
	}
	return nil
}

// dropTxn removes t from the outstanding-miss file, so that the accesses
// it completes can start a new transaction for its address; freeTxn
// recycles it once they have run.
func (c *L1) dropTxn(t *wtxn) {
	last := len(c.txns) - 1
	for i, u := range c.txns {
		if u == t {
			c.txns[i] = c.txns[last]
			c.txns = c.txns[:last]
			return
		}
	}
	panic("denovo: dropping a transaction that is not outstanding")
}

// findWB returns the index in wbs of unit's unacked writeback, or -1.
func (c *L1) findWB(unit proto.Addr) int {
	for i := range c.wbs {
		if c.wbs[i].unit == unit {
			return i
		}
	}
	return -1
}

// dropWB removes wbs[i]; the caller has taken its waiters.
func (c *L1) dropWB(i int) {
	last := len(c.wbs) - 1
	c.wbs[i] = c.wbs[last]
	c.wbs = c.wbs[:last]
}

// SetRegistry wires the shared registry (after construction).
func (c *L1) SetRegistry(r *Registry) { c.reg = r }

// Stats returns the hit/miss counters.
func (c *L1) Stats() *proto.L1Stats { return &c.stats }

// BackoffStallCycles returns cumulative hardware-backoff stall cycles.
func (c *L1) BackoffStallCycles() sim.Cycle { return c.backoffStall }

// BackoffCounter exposes the current backoff counter value (tests).
func (c *L1) BackoffCounter() sim.Cycle { return c.backoffCtr }

// IncrementCounter exposes the current increment counter value (tests).
func (c *L1) IncrementCounter() sim.Cycle { return c.incCtr }

// Epoch points the L1's watch at addr's word and returns a new sample
// number (see proto.L1Controller). The superseded sample counts as
// disturbed: its waiters wake at once.
func (c *L1) Epoch(addr proto.Addr) uint64 {
	c.disturb(c.watch.word)
	w := &c.watch
	w.word, w.disturbed = addr.Word(), false
	w.sample++
	return w.sample
}

// WaitDisturb calls fn once addr's word is disturbed after sample was
// taken: at once if it already was, or if sample is not the watch's
// current sample of that word.
func (c *L1) WaitDisturb(addr proto.Addr, sample uint64, fn func()) {
	w := &c.watch
	if w.disturbed || sample != w.sample || addr.Word() != w.word {
		c.eng.Schedule(0, fn)
		return
	}
	w.waiters = append(w.waiters, fn)
}

// disturb records that the cached state of word changed under the core.
func (c *L1) disturb(word proto.Addr) {
	if w := &c.watch; word == w.word {
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

// SelfInvalidate drops every cached Valid word whose region is in set.
// Registered words stay: they are this core's own up-to-date data
// (footnote 1 of the paper).
func (c *L1) SelfInvalidate(set proto.RegionSet) {
	if set.Empty() {
		return
	}
	c.cache.ForEach(func(l *cache.Line) {
		for i := range l.WordState {
			if l.WordState[i] == wv && set.Has(proto.RegionID(l.Regions[i])) {
				l.WordState[i] = wi
				c.disturb(l.Addr + proto.Addr(i*proto.WordBytes))
			}
		}
	})
}

// setUnit applies state st to every word of addr's coherence unit within
// line l, filling values from the committed image for words that were not
// already in that state (unit granularity > 1 transfers whole-unit data).
func (c *L1) setUnit(l *cache.Line, addr proto.Addr, st cache.WordState, region proto.RegionID) {
	base := c.cfg.unitOf(addr)
	n := c.cfg.unitWords()
	for k := 0; k < n; k++ {
		w := base + proto.Addr(k*proto.WordBytes)
		i := w.WordIndex()
		if l.WordState[i] != st {
			l.WordState[i] = st
			l.Values[i] = c.cfg.Store.Read(w)
			if region != 0 {
				l.Regions[i] = uint8(region)
			} else {
				l.Regions[i] = uint8(c.regionOf(w))
			}
		}
	}
}

// downUnit downgrades every Registered word of addr's unit to st (wv or
// wi), signaling disturbance.
func (c *L1) downUnit(l *cache.Line, addr proto.Addr, st cache.WordState) {
	base := c.cfg.unitOf(addr)
	n := c.cfg.unitWords()
	for k := 0; k < n; k++ {
		w := base + proto.Addr(k*proto.WordBytes)
		i := w.WordIndex()
		if l.WordState[i] == wr {
			l.WordState[i] = st
			c.disturb(w)
		}
	}
}

// ensureLine returns the resident line for addr, installing one (evicting
// a victim) if needed.
func (c *L1) ensureLine(addr proto.Addr) *cache.Line {
	l := c.cache.Lookup(addr)
	if l != nil {
		c.cache.Touch(l)
		return l
	}
	v := c.cache.Victim(addr)
	if v.Present {
		c.evict(v)
	}
	c.cache.Install(v, addr)
	return v
}

// evict writes back any registered words of the victim and drops it. The
// writeback covers whole coherence units: a unit mid-registration (one
// word locally Registered, the rest pending the ack) must return every
// word the registry may have pointed at us.
func (c *L1) evict(v *cache.Line) {
	lineAddr := v.Addr
	uw := c.cfg.unitWords()
	var mask uint16
	words := 0
	for i, st := range v.WordState {
		c.observe(st, "evict")
		if st == wr {
			base := i / uw * uw
			for k := base; k < base+uw; k++ {
				if mask&(1<<k) == 0 {
					mask |= 1 << k
					words++
				}
			}
		}
		if st != wi {
			c.disturb(lineAddr + proto.Addr(i*proto.WordBytes))
		}
	}
	c.cache.Evict(v)
	c.stats.Evicted++
	if words == 0 {
		return
	}
	c.stats.WB++
	for i := range proto.WordsPerLine {
		if unit := lineAddr + proto.Addr(i*proto.WordBytes); mask&(1<<i) != 0 && i%uw == 0 && c.findWB(unit) < 0 {
			c.wbs = append(c.wbs, wbEntry{unit: unit})
		}
	}
	c.cfg.Net.Send(c.node, c.reg.NodeFor(lineAddr), proto.ClassWB, proto.DataFlits(words),
		c.reg.recvFn, c.reg.inbox.Post(msg{kind: mWB, addr: lineAddr, mask: mask, from: c}))
}

// recvWBAck unblocks registrations that waited for an eviction writeback
// to be serialized at the registry (keyed per coherence unit). serial is
// the registry's serialization stamp for the writeback; it becomes the
// staleness bound for forwarded registrations (see wbBound).
func (c *L1) recvWBAck(lineAddr proto.Addr, mask uint16, serial uint64) {
	uw := c.cfg.unitWords()
	for i := range proto.WordsPerLine {
		if mask&(1<<i) == 0 || i%uw != 0 {
			continue
		}
		word := lineAddr + proto.Addr(i*proto.WordBytes)
		c.observeWord(word, "recvWBAck")
		c.wbBound[word] = serial
		j := c.findWB(word)
		if j < 0 {
			continue
		}
		ws := c.wbs[j].waiters
		c.dropWB(j)
		for _, w := range ws {
			c.access(w.req, w.commit, w.first)
		}
	}
}

// Access starts a memory access (see proto.L1Controller).
func (c *L1) Access(req proto.Request) {
	if req.Kind == proto.DataStore || req.Kind == proto.SyncStore {
		// Non-blocking store (DeNovo writes are non-blocking by default,
		// §5.2): retire after the L1 access cycle; the registration
		// completes in the background. Program order for the *next* sync
		// access is enforced by the core's drain-before-sync rule.
		//
		// Unlike MESI (see mesi.L1.storeFwd), DeNovo needs no store→load
		// forwarding buffer: a data store transitions the word to Registered
		// and writes line.Values *at issue time* (no transient states, §2.2),
		// so a younger same-core load always hits the new value.
		c.pendingStores++
		c.eng.ScheduleCall(c.cfg.L1AccessLat, req.Done, 0)
		c.access(req, c.storeDoneFn, true)
		return
	}
	c.access(req, req.Done, true)
}

func (c *L1) access(req proto.Request, commit func(uint64), first bool) {
	word := req.Addr.Word()
	unit := c.cfg.unitOf(req.Addr)
	// A registration (any write, or a sync read) for a unit whose eviction
	// writeback is still in flight waits for the registry's ack — the
	// writeback must serialize before our new registration request.
	if len(c.wbs) > 0 && req.Kind != proto.DataLoad {
		if i := c.findWB(unit); i >= 0 {
			e := &c.wbs[i]
			e.waiters = append(e.waiters, retry{req: req, commit: commit, first: first})
			return
		}
	}
	widx := req.Addr.WordIndex()
	line := c.cache.Lookup(req.Addr)
	st := wi
	if line != nil {
		st = line.WordState[widx]
	}
	c.observeKind(st, "access", req.Kind)

	finish := func(v uint64) {
		if first {
			c.eng.ScheduleCall(c.cfg.L1AccessLat, commit, v)
		} else {
			commit(v)
		}
	}

	switch req.Kind {
	case proto.DataLoad:
		if st == wv || st == wr {
			if first {
				c.stats.Hit(req.Kind)
			}
			c.cache.Touch(line)
			finish(line.Values[widx])
			return
		}
		if first {
			c.stats.Miss(req.Kind)
		}
		c.readMiss(req, commit, first)
		return

	case proto.DataStore:
		if st == wr {
			if first {
				c.stats.Hit(req.Kind)
			}
			c.cache.Touch(line)
			line.Values[widx] = req.Value
			c.cfg.Store.Write(word, req.Value)
			c.writeSig.Add(word)
			finish(0)
			return
		}
		// Immediate transition to Registered — no transient states (§2.2).
		// DRF data makes the local commit safe; the registration request
		// establishes global locatability in the background.
		if first {
			c.stats.Miss(req.Kind)
		}
		l := c.ensureLine(req.Addr)
		l.WordState[widx] = wr
		l.Values[widx] = req.Value
		l.Regions[widx] = uint8(req.Region)
		c.cfg.Store.Write(word, req.Value)
		c.writeSig.Add(word)
		if t := c.findTxn(unit); t != nil {
			// A registration for this unit is already in flight (an
			// earlier store); ride on it.
			t.onAck = append(t.onAck, commit)
			return
		}
		t := c.allocTxn(unit, req.Kind, true, req.Region)
		t.onAck = append(t.onAck, commit)
		c.txns = append(c.txns, t)
		c.sendReg(t, 0)
		return

	case proto.SyncLoad:
		if st == wr {
			if first {
				c.stats.Hit(req.Kind)
				// A sync read hit means no other core intervened: reset
				// the backoff counter (§4.2.1).
				c.backoffCtr = 0
			}
			c.cache.Touch(line)
			finish(line.Values[widx])
			return
		}
		// Always a miss unless Registered (§4.1): the single-reader rule.
		if first {
			c.stats.Miss(req.Kind)
		}
		if t := c.findTxn(unit); t != nil {
			t.waiters = append(t.waiters, retry{req: req, commit: commit})
			return
		}
		t := c.allocTxn(unit, req.Kind, true, req.Region)
		t.waiters = append(t.waiters, retry{req: req, commit: commit})
		c.txns = append(c.txns, t)
		// DeNovoSync: a sync read to Valid state stalls for the backoff
		// counter before issuing its miss (§4.2.1). Reads to Invalid state
		// (initial reads) issue immediately.
		var stall sim.Cycle
		if c.cfg.Backoff && st == wv {
			stall = c.backoffCtr
			c.backoffStall += stall
		}
		c.sendReg(t, stall)
		return

	case proto.SyncStore, proto.SyncRMW:
		if st == wr {
			if first {
				c.stats.Hit(req.Kind)
			}
			c.cache.Touch(line)
			old := c.cfg.Store.Read(word)
			if req.Kind == proto.SyncRMW {
				if first {
					c.backoffCtr = 0 // an RMW hit also resets (§4.2.1)
				}
				if nv, doStore := proto.ApplyRMW(&req, old); doStore {
					line.Values[widx] = nv
					c.cfg.Store.Write(word, nv)
					c.writeSig.Add(word)
					// A storing RMW completes a synchronization construct
					// (e.g. the final CAS of a non-blocking operation):
					// treat it as a release for the increment counter
					// (§4.2.2).
					c.incCtr = c.cfg.DefaultIncrement
				}
				finish(old)
			} else {
				line.Values[widx] = req.Value
				c.cfg.Store.Write(word, req.Value)
				c.writeSig.Add(word)
				// A release completed: reset the increment counter (§4.2.2).
				c.incCtr = c.cfg.DefaultIncrement
				finish(0)
			}
			return
		}
		if first {
			c.stats.Miss(req.Kind)
		}
		if t := c.findTxn(unit); t != nil {
			t.waiters = append(t.waiters, retry{req: req, commit: commit})
			return
		}
		t := c.allocTxn(unit, req.Kind, true, req.Region)
		t.waiters = append(t.waiters, retry{req: req, commit: commit})
		c.txns = append(c.txns, t)
		// Sync writes are never delayed by backoff (§4.2.4).
		c.sendReg(t, 0)
		return
	}
	panic("denovo: unknown access kind")
}

// sendReg issues a registration request after the L1 access latency plus
// any hardware-backoff stall.
func (c *L1) sendReg(t *wtxn, stall sim.Cycle) {
	c.eng.ScheduleCall(c.cfg.L1AccessLat+stall, c.recvFn, c.inbox.Post(msg{kind: mSendReg, addr: t.word, akind: t.kind}))
}

// issueReg sends word's registration request to its registry bank.
func (c *L1) issueReg(word proto.Addr, kind proto.AccessKind) {
	c.cfg.Net.Send(c.node, c.reg.NodeFor(word), regClass(kind), proto.CtrlFlits,
		c.reg.recvFn, c.reg.inbox.Post(msg{kind: mReg, addr: word, akind: kind, from: c}))
}

// readMiss issues a plain data-read request (no registration).
func (c *L1) readMiss(req proto.Request, commit func(uint64), first bool) {
	word := req.Addr.Word()
	if t := c.findTxn(word); t != nil {
		t.waiters = append(t.waiters, retry{req: req, commit: commit})
		return
	}
	t := c.allocTxn(word, req.Kind, false, req.Region)
	t.waiters = append(t.waiters, retry{req: req, commit: commit})
	c.txns = append(c.txns, t)
	c.eng.ScheduleCall(c.cfg.L1AccessLat, c.recvFn, c.inbox.Post(msg{kind: mReadMiss, addr: word}))
}

// issueRead sends word's data-read request to its registry bank.
func (c *L1) issueRead(word proto.Addr) {
	c.cfg.Net.Send(c.node, c.reg.NodeFor(word), proto.ClassLD, proto.CtrlFlits,
		c.reg.recvFn, c.reg.inbox.Post(msg{kind: mDataRead, addr: word, from: c}))
}

// regionOf resolves a word's region via the global software map.
func (c *L1) regionOf(word proto.Addr) proto.RegionID {
	if c.regions == nil {
		return 0
	}
	return c.regions.RegionOf(word)
}

// recvDataFill installs a data response: the words in mask arrive Valid
// with their values from the fills slot fill. Registered words are never
// overwritten.
func (c *L1) recvDataFill(lineAddr proto.Addr, mask uint16, fill uint64) {
	l := c.ensureLine(lineAddr)
	vals := c.fills.At(fill)
	for i := range proto.WordsPerLine {
		if mask&(1<<i) == 0 {
			continue
		}
		c.observe(l.WordState[i], "recvDataFill")
		if l.WordState[i] == wr {
			continue
		}
		l.WordState[i] = wv
		l.Values[i] = vals[i]
		l.Regions[i] = uint8(c.regionOf(lineAddr + proto.Addr(i*proto.WordBytes)))
	}
	c.fills.Free(fill)
	c.finishTxn(lineAddr, mask)
}

// finishTxn completes every outstanding data-read transaction covered by
// the filled words.
func (c *L1) finishTxn(lineAddr proto.Addr, mask uint16) {
	for i := range proto.WordsPerLine {
		if mask&(1<<i) == 0 {
			continue
		}
		t := c.findTxn(lineAddr + proto.Addr(i*proto.WordBytes))
		if t == nil || t.isReg {
			continue
		}
		c.dropTxn(t)
		for _, w := range t.waiters {
			c.access(w.req, w.commit, w.first)
		}
		c.freeTxn(t)
	}
}

// recvFwdDataRead services a data read forwarded by the registry. The
// owner stays Registered; per DeNovo's flexible-communication-granularity
// optimization [10], the response carries the requested word plus every
// other word of the line this owner holds Registered (the requester will
// likely want them next — e.g. a data structure rebalanced wholesale by
// the previous lock holder).
func (c *L1) recvFwdDataRead(word proto.Addr, from *L1) {
	c.eng.ScheduleCall(c.cfg.RemoteL1Lat, c.recvFn, c.inbox.Post(msg{kind: mAnswerRead, addr: word, from: from}))
}

// answerRead answers a forwarded data read once the remote-L1 access
// latency has passed (see recvFwdDataRead).
func (c *L1) answerRead(word proto.Addr, from *L1) {
	c.observeWord(word, "recvFwdDataRead")
	lineAddr := word.Line()
	fill, vals := from.fills.Claim()
	var mask uint16
	words := 0
	if l := c.cache.Lookup(word); l != nil {
		for i, st := range l.WordState {
			if st == wr {
				mask |= 1 << i
				vals[i] = c.cfg.Store.Read(lineAddr + proto.Addr(i*proto.WordBytes))
				words++
			}
		}
	}
	if k := word.WordIndex(); mask&(1<<k) == 0 {
		// Stale forward (the word was evicted): the committed image is
		// authoritative.
		mask |= 1 << k
		vals[k] = c.cfg.Store.Read(word)
		words++
	}
	c.cfg.Net.Send(c.node, from.node, proto.ClassLD, proto.DataFlits(words),
		from.recvFn, from.inbox.Post(msg{kind: mDataFill, addr: lineAddr, mask: mask, fill: uint32(fill)}))
}

// recvRegAck completes this L1's own registration: the word becomes
// Registered with the serialized value, stalled accesses retry (and now
// hit), then any parked forwarded registration is serviced — handing the
// registration down the distributed queue.
//
//atlas:unreachable denovo.L1 * recvRegAck:DataLoad: data loads never register — they complete via recvDataFill
func (c *L1) recvRegAck(word proto.Addr, kind proto.AccessKind, val uint64) {
	t := c.findTxn(word)
	if t == nil {
		panic("denovo: registration ack for absent transaction")
	}
	c.observeWordKind(word, "recvRegAck", kind)
	c.dropTxn(t)

	switch kind {
	case proto.SyncLoad, proto.SyncStore, proto.SyncRMW:
		l := c.ensureLine(word)
		widx := word.WordIndex()
		l.WordState[widx] = wr
		l.Values[widx] = val
		l.Regions[widx] = uint8(t.region)
		if c.cfg.unitWords() > 1 {
			c.setUnit(l, word, wr, t.region)
		}
	case proto.DataStore:
		// Data stores already committed locally at issue (no data travels
		// with the ack). At line granularity the ack carries the rest of
		// the unit, which becomes Registered alongside the written word.
		// DataLoad never arrives here: data reads do not register and
		// complete via recvDataFill.
		if c.cfg.unitWords() > 1 {
			c.setUnit(c.ensureLine(word), word, wr, t.region)
		}
	}
	// Data stores already committed locally at issue; sync retries now hit
	// in Registered state and commit in serialization order.
	for _, commit := range t.onAck {
		commit(0)
	}
	for _, w := range t.waiters {
		c.access(w.req, w.commit, w.first)
	}
	for _, p := range t.parked {
		c.serviceFwd(p.kind, p.from, word, false)
	}
	c.freeTxn(t)
}

// recvFwdReg handles a registration request forwarded by the registry to
// this (previous-registrant) L1. If our own registration for the word is
// still pending, the request parks in the MSHR (§4.1); otherwise it is
// serviced after the remote-L1 access latency.
//
// Parking is only sound for forwards that chase this core's pending
// registration (the requester serialized *after* us, so our ack will
// arrive and hand the queue down). Network classes preserve point-to-
// point order only per class, so a forward can also arrive late: sent
// while we were still the registrant, overtaken by our writeback's ack
// (a different class), and delivered after we re-registered. Parking
// that forward deadlocks — the requester serialized *before* us, and
// our own ack transitively waits on theirs (mutual parking; the bundled
// model checker derives this cycle under same-channel reordering, see
// internal/verify). The registry's serialization stamp resolves the
// ambiguity: a forward older than the last writeback ack (wbBound)
// targets relinquished ownership and is answered immediately from the
// committed image, without touching the new registration.
func (c *L1) recvFwdReg(word proto.Addr, kind proto.AccessKind, from *L1, serial uint64) {
	c.observeWordKind(word, "recvFwdReg", kind)
	stale := serial < c.wbBound[c.cfg.unitOf(word)]
	if t := c.findTxn(word); t != nil && t.isReg && !stale {
		t.parked = append(t.parked, parkedFwd{kind: kind, from: from})
		return
	}
	c.eng.ScheduleCall(c.cfg.RemoteL1Lat, c.recvFn, c.inbox.Post(msg{kind: mServiceFwd, addr: word, akind: kind, from: from, stale: stale}))
}

// serviceFwd relinquishes this core's registration of word to from:
//   - a sync read downgrades R→Valid and bumps the backoff machinery
//     (§4.2.1: remote sync reads signal contention);
//   - any write invalidates the word.
//
// The response acks the requester directly; values come from the committed
// image (this core's writes are committed, so the image is its data).
//
// stale marks a forward that predates this core's last writeback ack
// (see recvFwdReg): it targets ownership already given back, so it must
// not downgrade a registration acquired since — only the committed-image
// ack below applies.
func (c *L1) serviceFwd(kind proto.AccessKind, from *L1, word proto.Addr, stale bool) {
	l := c.cache.Lookup(word)
	widx := word.WordIndex()
	if !stale && l != nil && l.WordState[widx] == wr {
		c.observeKind(wr, "serviceFwd", kind)
		switch kind {
		case proto.SyncLoad:
			c.downUnit(l, word, wv)
			c.noteRemoteSyncRead()
		case proto.DataStore, proto.SyncStore, proto.SyncRMW:
			c.downUnit(l, word, wi)
		}
	}
	v := c.cfg.Store.Read(word)
	c.cfg.Net.Send(c.node, from.node, regClass(kind), c.ackFlits(kind),
		from.recvFn, from.inbox.Post(msg{kind: mRegAck, addr: word, akind: kind, val: v}))
}

// ackFlits sizes this L1's registration-ack responses: value-carrying
// acks transfer the whole coherence unit.
func (c *L1) ackFlits(kind proto.AccessKind) int {
	switch kind {
	case proto.SyncLoad, proto.SyncRMW:
		return proto.DataFlits(c.cfg.unitWords())
	default:
		return proto.CtrlFlits
	}
}

// noteRemoteSyncRead updates the backoff counters on an incoming remote
// sync-read registration (§4.2.1–§4.2.2).
func (c *L1) noteRemoteSyncRead() {
	if !c.cfg.Backoff {
		return
	}
	mask := c.cfg.backoffMask()
	c.backoffCtr = (c.backoffCtr + c.incCtr) & mask
	c.remoteSyncReads++
	if c.cfg.IncEveryN > 0 && c.remoteSyncReads%c.cfg.IncEveryN == 0 {
		c.incCtr += c.cfg.DefaultIncrement
		if c.incCtr > mask {
			c.incCtr = mask
		}
	}
}

// SignatureRelease publishes the accumulated write signature to lock and
// starts a fresh one (DeNovoND-style release).
func (c *L1) SignatureRelease(lock proto.Addr) {
	if c.cfg.Signatures == nil {
		return
	}
	c.cfg.Signatures.Publish(lock, c.writeSig, int(c.id))
	c.writeSig.Clear()
}

// SignatureAcquire self-invalidates cached Valid words that match lock's
// accumulated write signature — selective where region invalidation is
// wholesale. Registered words stay, as always.
func (c *L1) SignatureAcquire(lock proto.Addr) {
	if c.cfg.Signatures == nil {
		return
	}
	sig := c.cfg.Signatures.Consume(lock, int(c.id))
	if sig.Empty() {
		return
	}
	c.cache.ForEach(func(l *cache.Line) {
		for i := range l.WordState {
			word := l.Addr + proto.Addr(i*proto.WordBytes)
			if l.WordState[i] == wv && sig.MightContain(word) {
				l.WordState[i] = wi
				c.disturb(word)
			}
		}
	})
}

var _ proto.L1Controller = (*L1)(nil)
