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

// wtxn is an outstanding word-granularity miss.
type wtxn struct {
	word   proto.Addr
	kind   proto.AccessKind
	isReg  bool // registration (writes + sync reads) vs. plain data read
	region proto.RegionID

	waiters []func() // access retries to run after the fill/ack
	onAck   []func() // completions that need no retry (data stores)
	parked  []parkedFwd
}

// L1 is one core's private DeNovo cache controller, implementing
// DeNovoSync0 (cfg.Backoff = false) or DeNovoSync (true).
type L1 struct {
	cfg  *Config
	eng  *sim.Engine // cfg.Eng
	id   proto.CoreID
	node proto.NodeID
	reg  *Registry

	cache   *cache.Cache
	txns    map[proto.Addr]*wtxn
	regions proto.RegionMapper

	pendingStores int
	drainWaiters  []func()

	// storeDoneFn retires a non-blocking store once its registration
	// completes. Bound once in NewL1, so that issuing a store allocates no
	// continuation.
	storeDoneFn func(uint64)

	epochs   map[proto.Addr]uint64 // per word
	disturbs map[proto.Addr][]func()

	// wbPending marks words whose eviction writeback has not been acked
	// by the registry yet; re-registrations of those words wait (see
	// registry.recvWB for the deadlock this prevents).
	wbPending map[proto.Addr]bool
	wbWaiters map[proto.Addr][]func()
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
		cfg:       cfg,
		eng:       cfg.Eng,
		id:        id,
		node:      node,
		cache:     cache.New(cfg.L1Size, cfg.L1Ways),
		txns:      make(map[proto.Addr]*wtxn),
		regions:   regions,
		epochs:    make(map[proto.Addr]uint64),
		disturbs:  make(map[proto.Addr][]func()),
		wbPending: make(map[proto.Addr]bool),
		wbWaiters: make(map[proto.Addr][]func()),
		wbBound:   make(map[proto.Addr]uint64),
		incCtr:    cfg.initialIncrement(),
	}
	c.storeDoneFn = func(uint64) { c.storeCommitted() }
	return c
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

// Epoch returns the disturbance counter for addr's word.
func (c *L1) Epoch(addr proto.Addr) uint64 { return c.epochs[addr.Word()] }

// WaitDisturb calls fn when the word's epoch moves past epoch.
func (c *L1) WaitDisturb(addr proto.Addr, epoch uint64, fn func()) {
	w := addr.Word()
	if c.epochs[w] != epoch {
		c.eng.Schedule(0, fn)
		return
	}
	c.disturbs[w] = append(c.disturbs[w], fn)
}

func (c *L1) disturb(word proto.Addr) {
	c.epochs[word]++
	ws := c.disturbs[word]
	if len(ws) == 0 {
		return
	}
	delete(c.disturbs, word)
	for _, fn := range ws {
		c.eng.Schedule(0, fn)
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
		c.drainWaiters = nil
		for _, fn := range ws {
			c.eng.Schedule(0, fn)
		}
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
			if l.WordState[i] == wv && set.Has(l.Regions[i]) {
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
				l.Regions[i] = region
			} else {
				l.Regions[i] = c.regionOf(w)
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
	var mask [proto.WordsPerLine]bool
	words := 0
	for i, st := range v.WordState {
		c.observe(st, "evict")
		if st == wr {
			base := i / uw * uw
			for k := base; k < base+uw; k++ {
				if !mask[k] {
					mask[k] = true
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
	for i, m := range mask {
		if m && i%uw == 0 {
			c.wbPending[lineAddr+proto.Addr(i*proto.WordBytes)] = true
		}
	}
	c.cfg.Net.Send(c.node, c.reg.NodeFor(lineAddr), proto.ClassWB, proto.DataFlits(words), func() {
		c.reg.recvWB(lineAddr, mask, c)
	})
}

// recvWBAck unblocks registrations that waited for an eviction writeback
// to be serialized at the registry (keyed per coherence unit). serial is
// the registry's serialization stamp for the writeback; it becomes the
// staleness bound for forwarded registrations (see wbBound).
func (c *L1) recvWBAck(lineAddr proto.Addr, mask [proto.WordsPerLine]bool, serial uint64) {
	uw := c.cfg.unitWords()
	for i, m := range mask {
		if !m || i%uw != 0 {
			continue
		}
		word := lineAddr + proto.Addr(i*proto.WordBytes)
		c.observe(c.wordState(word), "recvWBAck")
		c.wbBound[word] = serial
		delete(c.wbPending, word)
		ws := c.wbWaiters[word]
		if len(ws) > 0 {
			delete(c.wbWaiters, word)
			for _, fn := range ws {
				fn()
			}
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
	if c.wbPending[unit] && req.Kind != proto.DataLoad {
		c.wbWaiters[unit] = append(c.wbWaiters[unit], func() { c.access(req, commit, first) })
		return
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
		l.Regions[widx] = req.Region
		c.cfg.Store.Write(word, req.Value)
		c.writeSig.Add(word)
		if t := c.txns[unit]; t != nil {
			// A registration for this unit is already in flight (an
			// earlier store); ride on it.
			t.onAck = append(t.onAck, func() { commit(0) })
			return
		}
		t := &wtxn{word: unit, kind: req.Kind, isReg: true, region: req.Region}
		t.onAck = append(t.onAck, func() { commit(0) })
		c.txns[unit] = t
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
		if t := c.txns[unit]; t != nil {
			t.waiters = append(t.waiters, func() { c.access(req, commit, false) })
			return
		}
		t := &wtxn{word: unit, kind: req.Kind, isReg: true, region: req.Region}
		t.waiters = append(t.waiters, func() { c.access(req, commit, false) })
		c.txns[unit] = t
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
				if nv, doStore := req.RMW(old); doStore {
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
		if t := c.txns[unit]; t != nil {
			t.waiters = append(t.waiters, func() { c.access(req, commit, false) })
			return
		}
		t := &wtxn{word: unit, kind: req.Kind, isReg: true, region: req.Region}
		t.waiters = append(t.waiters, func() { c.access(req, commit, false) })
		c.txns[unit] = t
		// Sync writes are never delayed by backoff (§4.2.4).
		c.sendReg(t, 0)
		return
	}
	panic("denovo: unknown access kind")
}

// sendReg issues a registration request after the L1 access latency plus
// any hardware-backoff stall.
func (c *L1) sendReg(t *wtxn, stall sim.Cycle) {
	c.eng.Schedule(c.cfg.L1AccessLat+stall, func() {
		c.cfg.Net.Send(c.node, c.reg.NodeFor(t.word), regClass(t.kind), proto.CtrlFlits, func() {
			c.reg.recvReg(t.word, t.kind, c)
		})
	})
}

// readMiss issues a plain data-read request (no registration).
func (c *L1) readMiss(req proto.Request, commit func(uint64), first bool) {
	word := req.Addr.Word()
	retry := func() { c.access(req, commit, false) }
	if t := c.txns[word]; t != nil {
		t.waiters = append(t.waiters, retry)
		return
	}
	t := &wtxn{word: word, kind: req.Kind, region: req.Region}
	t.waiters = append(t.waiters, retry)
	c.txns[word] = t
	c.eng.Schedule(c.cfg.L1AccessLat, func() {
		c.cfg.Net.Send(c.node, c.reg.NodeFor(word), proto.ClassLD, proto.CtrlFlits, func() {
			c.reg.recvDataRead(word, c)
		})
	})
}

// regionOf resolves a word's region via the global software map.
func (c *L1) regionOf(word proto.Addr) proto.RegionID {
	if c.regions == nil {
		return 0
	}
	return c.regions.RegionOf(word)
}

// recvDataFill installs a registry data response: the registry-owned words
// of the line arrive Valid. Registered words are never overwritten.
func (c *L1) recvDataFill(lineAddr proto.Addr, mask [proto.WordsPerLine]bool, vals [proto.WordsPerLine]uint64) {
	l := c.ensureLine(lineAddr)
	for i := range mask {
		if !mask[i] {
			continue
		}
		c.observe(l.WordState[i], "recvDataFill")
		if l.WordState[i] == wr {
			continue
		}
		l.WordState[i] = wv
		l.Values[i] = vals[i]
		l.Regions[i] = c.regionOf(lineAddr + proto.Addr(i*proto.WordBytes))
	}
	c.finishTxn(lineAddr, mask)
}

// finishTxn completes every outstanding data-read transaction covered by
// the filled words.
func (c *L1) finishTxn(lineAddr proto.Addr, mask [proto.WordsPerLine]bool) {
	for i := range mask {
		if !mask[i] {
			continue
		}
		word := lineAddr + proto.Addr(i*proto.WordBytes)
		t := c.txns[word]
		if t == nil || t.isReg {
			continue
		}
		delete(c.txns, word)
		for _, w := range t.waiters {
			w()
		}
	}
}

// recvFwdDataRead services a data read forwarded by the registry. The
// owner stays Registered; per DeNovo's flexible-communication-granularity
// optimization [10], the response carries the requested word plus every
// other word of the line this owner holds Registered (the requester will
// likely want them next — e.g. a data structure rebalanced wholesale by
// the previous lock holder).
func (c *L1) recvFwdDataRead(word proto.Addr, from *L1) {
	c.eng.Schedule(c.cfg.RemoteL1Lat, func() {
		c.observe(c.wordState(word), "recvFwdDataRead")
		lineAddr := word.Line()
		var mask [proto.WordsPerLine]bool
		var vals [proto.WordsPerLine]uint64
		words := 0
		if l := c.cache.Lookup(word); l != nil {
			for i, st := range l.WordState {
				if st == wr {
					mask[i] = true
					vals[i] = c.cfg.Store.Read(lineAddr + proto.Addr(i*proto.WordBytes))
					words++
				}
			}
		}
		if !mask[word.WordIndex()] {
			// Stale forward (the word was evicted): the committed image is
			// authoritative.
			mask[word.WordIndex()] = true
			vals[word.WordIndex()] = c.cfg.Store.Read(word)
			words++
		}
		c.cfg.Net.Send(c.node, from.node, proto.ClassLD, proto.DataFlits(words), func() {
			from.recvDataFill(lineAddr, mask, vals)
		})
	})
}

// recvRegAck completes this L1's own registration: the word becomes
// Registered with the serialized value, stalled accesses retry (and now
// hit), then any parked forwarded registration is serviced — handing the
// registration down the distributed queue.
//
//atlas:unreachable denovo.L1 * recvRegAck:DataLoad: data loads never register — they complete via recvDataFill
func (c *L1) recvRegAck(word proto.Addr, kind proto.AccessKind, val uint64) {
	t := c.txns[word]
	if t == nil {
		panic("denovo: registration ack for absent transaction")
	}
	c.observeKind(c.wordState(word), "recvRegAck", kind)
	delete(c.txns, word)

	switch kind {
	case proto.SyncLoad, proto.SyncStore, proto.SyncRMW:
		l := c.ensureLine(word)
		widx := word.WordIndex()
		l.WordState[widx] = wr
		l.Values[widx] = val
		l.Regions[widx] = t.region
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
	for _, fn := range t.onAck {
		fn()
	}
	for _, w := range t.waiters {
		w()
	}
	for _, p := range t.parked {
		c.serviceFwd(p.kind, p.from, word, false)
	}
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
	c.observeKind(c.wordState(word), "recvFwdReg", kind)
	stale := serial < c.wbBound[c.cfg.unitOf(word)]
	if t := c.txns[word]; t != nil && t.isReg && !stale {
		t.parked = append(t.parked, parkedFwd{kind: kind, from: from})
		return
	}
	c.eng.Schedule(c.cfg.RemoteL1Lat, func() {
		c.serviceFwd(kind, from, word, stale)
	})
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
	c.cfg.Net.Send(c.node, from.node, regClass(kind), c.ackFlits(kind), func() {
		from.recvRegAck(word, kind, v)
	})
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
