// Package cache provides the storage structures shared by the protocol
// controllers: a set-associative, LRU-replacement line array with per-word
// state (DeNovo keeps coherence state at word granularity; MESI uses the
// per-line state field). Each protocol keeps its outstanding misses in
// its own transaction table.
package cache

import "denovosync/internal/proto"

// LineState is a per-line coherence state. The value space is owned by the
// protocol controller (internal/mesi declares its I/S/E/M constants with
// this type); zero is universally "invalid / freshly installed". Being a
// named type lets the simlint exhauststate analyzer check that protocol
// switches over line states cover every declared constant.
type LineState byte

// WordState is a per-word coherence state (DeNovo keeps state at word
// granularity; internal/denovo declares its Invalid/Valid/Registered
// constants with this type). Zero is universally "invalid".
type WordState byte

// Line is one cache line's worth of storage and metadata. State values are
// protocol-defined: MESI uses LineState only; DeNovo uses the per-word
// WordState array (Invalid/Valid/Registered).
type Line struct {
	Addr      proto.Addr // line-aligned; valid only when Present
	Present   bool
	LineState LineState
	WordState [proto.WordsPerLine]WordState
	Values    [proto.WordsPerLine]uint64
	// Regions holds each word's proto.RegionID. Region IDs are below
	// proto.MaxRegions (64), so a byte holds one, and a cache's lines,
	// which every machine build allocates and zeroes, stay small.
	Regions [proto.WordsPerLine]uint8
	// Grant is a protocol-owned stamp of the transaction that installed
	// the line: MESI keeps the directory epoch of an E/M line's exclusive
	// grant here and returns it on the eviction Put. Install zeroes it.
	Grant uint64

	// lru is the set-relative recency stamp (bigger = more recent).
	lru uint64
}

// ClearWords resets all per-word metadata to the zero state.
func (l *Line) ClearWords() {
	l.WordState = [proto.WordsPerLine]WordState{}
	l.Values = [proto.WordsPerLine]uint64{}
	l.Regions = [proto.WordsPerLine]uint8{}
}

// Cache is a set-associative cache. It only manages placement and
// replacement; the protocol controller owns the meaning of states.
type Cache struct {
	sets  int
	ways  int
	lines []Line // sets*ways, set-major

	// tags[i] is lines[i].Addr while that line is present, else noTag:
	// Lookup scans one set's tags without touching the lines.
	tags  []proto.Addr
	n     int // present lines
	clock uint64
}

// noTag marks an empty way. It is not line-aligned, so no line's
// address equals it.
const noTag = ^proto.Addr(0)

// New constructs a cache with the given geometry. sizeBytes must be an
// exact multiple of ways*LineBytes and the set count a power of two.
func New(sizeBytes, ways int) *Cache {
	lines := sizeBytes / proto.LineBytes
	if lines%ways != 0 {
		panic("cache: size not a multiple of ways")
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		panic("cache: set count not a power of two")
	}
	c := &Cache{sets: sets, ways: ways, lines: make([]Line, lines), tags: make([]proto.Addr, lines)}
	for i := range c.tags {
		c.tags[i] = noTag
	}
	return c
}

// Sets returns the number of sets; Ways the associativity.
func (c *Cache) Sets() int { return c.sets }
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) setOf(line proto.Addr) int {
	return int(line/proto.LineBytes) & (c.sets - 1)
}

// Lookup returns the line holding addr's line, or nil. It does not update
// recency; use Touch for that.
func (c *Cache) Lookup(addr proto.Addr) *Line {
	line := addr.Line()
	first := c.setOf(line) * c.ways
	for i, tag := range c.tags[first : first+c.ways] {
		if tag == line {
			return &c.lines[first+i]
		}
	}
	return nil
}

// slot returns the index in lines of l, which must be a way of addr's
// set.
func (c *Cache) slot(l *Line, addr proto.Addr) int {
	first := c.setOf(addr.Line()) * c.ways
	for i := first; i < first+c.ways; i++ {
		if &c.lines[i] == l {
			return i
		}
	}
	panic("cache: line is not a way of its address's set")
}

// Touch marks l most recently used.
func (c *Cache) Touch(l *Line) {
	c.clock++
	l.lru = c.clock
}

// Victim returns the line that would be evicted to make room for addr's
// line: an empty way if one exists, else the LRU line of the set. The
// caller is responsible for writing back the victim as the protocol
// requires, then calling Install.
func (c *Cache) Victim(addr proto.Addr) *Line {
	first := c.setOf(addr.Line()) * c.ways
	var victim *Line
	for i, tag := range c.tags[first : first+c.ways] {
		l := &c.lines[first+i]
		if tag == noTag {
			return l
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// Install claims l for addr's line, clearing all word metadata and
// marking it most recently used. l must be a way of addr's set, as
// Victim(addr) returns; any previous occupant loses its tag.
func (c *Cache) Install(l *Line, addr proto.Addr) {
	if !l.Present {
		c.n++
	}
	l.Addr = addr.Line()
	l.Present = true
	l.LineState = 0
	l.Grant = 0
	l.ClearWords()
	c.tags[c.slot(l, addr)] = l.Addr
	c.Touch(l)
}

// Evict removes l from the cache (the protocol has already written it back).
func (c *Cache) Evict(l *Line) {
	if !l.Present {
		return
	}
	c.n--
	c.tags[c.slot(l, l.Addr)] = noTag
	l.Present = false
	l.LineState = 0
	l.ClearWords()
}

// ForEach calls fn on every present line, set by set. It finds them
// through the tag array rather than reading every line. fn must not
// install or evict.
func (c *Cache) ForEach(fn func(*Line)) {
	for i, tag := range c.tags {
		if tag != noTag {
			fn(&c.lines[i])
		}
	}
}

// Len returns the number of present lines.
func (c *Cache) Len() int { return c.n }
