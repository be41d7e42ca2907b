package cache

import (
	"testing"

	"denovosync/internal/proto"
	"denovosync/internal/race"
)

// denseCache is FuzzCache's reference model: the same placement and
// replacement over one line array that the constructor allocates whole,
// the layout Cache had before its ways took their lines on first fill.
type denseCache struct {
	sets  int
	ways  int
	lines []Line
	tags  []proto.Addr
	n     int
	clock uint64
}

func newDense(sets, ways int) *denseCache {
	d := &denseCache{sets: sets, ways: ways, lines: make([]Line, sets*ways), tags: make([]proto.Addr, sets*ways)}
	for i := range d.tags {
		d.tags[i] = noTag
	}
	return d
}

func (d *denseCache) setOf(line proto.Addr) int {
	return int(line/proto.LineBytes) & (d.sets - 1)
}

func (d *denseCache) Lookup(addr proto.Addr) *Line {
	line := addr.Line()
	first := d.setOf(line) * d.ways
	for i, tag := range d.tags[first : first+d.ways] {
		if tag == line {
			return &d.lines[first+i]
		}
	}
	return nil
}

func (d *denseCache) slot(l *Line, addr proto.Addr) int {
	first := d.setOf(addr.Line()) * d.ways
	for i := first; i < first+d.ways; i++ {
		if &d.lines[i] == l {
			return i
		}
	}
	panic("denseCache: line is not a way of its address's set")
}

func (d *denseCache) Touch(l *Line) {
	d.clock++
	l.lru = d.clock
}

func (d *denseCache) Victim(addr proto.Addr) *Line {
	first := d.setOf(addr.Line()) * d.ways
	var victim *Line
	for i, tag := range d.tags[first : first+d.ways] {
		l := &d.lines[first+i]
		if tag == noTag {
			return l
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

func (d *denseCache) Install(l *Line, addr proto.Addr) {
	if !l.Present {
		d.n++
	}
	l.Addr = addr.Line()
	l.Present = true
	l.LineState = 0
	l.Grant = 0
	l.ClearWords()
	d.tags[d.slot(l, addr)] = l.Addr
	d.Touch(l)
}

func (d *denseCache) Evict(l *Line) {
	if !l.Present {
		return
	}
	d.n--
	d.tags[d.slot(l, l.Addr)] = noTag
	l.Present = false
	l.LineState = 0
	l.ClearWords()
}

func (d *denseCache) ForEach(fn func(*Line)) {
	for i, tag := range d.tags {
		if tag != noTag {
			fn(&d.lines[i])
		}
	}
}

// checkCache runs an encoded program against a Cache and a denseCache
// of the same geometry and fails on any difference. prog[0] picks the
// geometry: 1, 2, 4 or 8 sets (low two bits) of 1 to 8 ways (next
// three). Then each operation is two bytes: the first picks it (modulo
// 7), the second's low five bits one of 32 lines. Every operation looks
// the line up in both; code 0 does nothing more. A miss (1 and 5) takes
// the victim in both, which must be the same way, evicts it when present
// and installs, stamping the new line's first word, and a hit touches;
// 2 evicts and 3 touches a present line; 4 walks both with ForEach; 6
// takes a victim and installs nothing. Lookups must agree on the way and
// the stamp, ForEach on the order, and Len after every operation.
func checkCache(t *testing.T, prog []byte) {
	if len(prog) == 0 {
		return
	}
	sets, ways := 1<<(prog[0]&3), 1+int(prog[0]>>2&7)
	c, d := New(sets*ways*proto.LineBytes, ways), newDense(sets, ways)
	var stamp uint64
	for prog = prog[1:]; len(prog) >= 2; prog = prog[2:] {
		a := lineAddr(int(prog[1] & 31))
		l, m := c.Lookup(a), d.Lookup(a)
		if (l == nil) != (m == nil) {
			t.Fatalf("Lookup(%v) = %v, model %v", a, l, m)
		}
		if l != nil && (c.slot(l, a) != d.slot(m, a) || l.Values[0] != m.Values[0]) {
			t.Fatalf("Lookup(%v) found way %d stamped %d, model way %d stamped %d",
				a, c.slot(l, a), l.Values[0], d.slot(m, a), m.Values[0])
		}
		switch prog[0] % 7 {
		case 1, 5:
			if l != nil {
				c.Touch(l)
				d.Touch(m)
				break
			}
			l, m = c.Victim(a), d.Victim(a)
			if c.slot(l, a) != d.slot(m, a) || l.Present != m.Present {
				t.Fatalf("Victim(%v) = way %d (present %v), model way %d (present %v)",
					a, c.slot(l, a), l.Present, d.slot(m, a), m.Present)
			}
			c.Evict(l)
			d.Evict(m)
			c.Install(l, a)
			d.Install(m, a)
			stamp++
			l.Values[0], m.Values[0] = stamp, stamp
		case 2:
			if l != nil {
				c.Evict(l)
				d.Evict(m)
			}
		case 3:
			if l != nil {
				c.Touch(l)
				d.Touch(m)
			}
		case 4:
			var got, want []Line
			c.ForEach(func(l *Line) { got = append(got, *l) })
			d.ForEach(func(l *Line) { want = append(want, *l) })
			if len(got) != len(want) {
				t.Fatalf("ForEach visited %d lines, model %d", len(got), len(want))
			}
			for i := range got {
				if got[i].Addr != want[i].Addr || got[i].Values[0] != want[i].Values[0] {
					t.Fatalf("ForEach line %d = %v stamped %d, model %v stamped %d",
						i, got[i].Addr, got[i].Values[0], want[i].Addr, want[i].Values[0])
				}
			}
		case 6:
			l, m = c.Victim(a), d.Victim(a)
			if c.slot(l, a) != d.slot(m, a) {
				t.Fatalf("Victim(%v) = way %d, model way %d", a, c.slot(l, a), d.slot(m, a))
			}
		}
		if c.Len() != d.n {
			t.Fatalf("Len = %d, model %d", c.Len(), d.n)
		}
	}
}

// FuzzCache holds Cache to the dense reference model: the same victim
// way for every miss, the same lookups, walk order and length.
func FuzzCache(f *testing.F) {
	f.Fuzz(checkCache)
}

// TestRefillAllocatesNothing: once every way holds a line, evictions and
// fills allocate nothing, and a line keeps its address while other ways
// fill.
func TestRefillAllocatesNothing(t *testing.T) {
	c := New(32*1024, 8)
	a0 := lineAddr(0)
	first := c.Victim(a0)
	c.Install(first, a0)
	lines := c.Sets() * c.Ways()
	for i := 1; i < lines; i++ {
		a := lineAddr(i)
		c.Install(c.Victim(a), a)
	}
	if c.Lookup(a0) != first || c.Len() != lines {
		t.Fatalf("after filling every way: Lookup(%v) = %p, want %p; Len = %d, want %d",
			a0, c.Lookup(a0), first, c.Len(), lines)
	}
	held := append([]*Line(nil), c.lines...)

	next := lines
	refill := func() {
		a := lineAddr(next)
		next++
		v := c.Victim(a)
		c.Evict(v)
		c.Install(v, a)
	}
	if !race.Enabled {
		if n := testing.AllocsPerRun(1000, refill); n != 0 {
			t.Fatalf("an evict and refill allocated %.1f times, want 0", n)
		}
	} else {
		refill()
	}
	for i, l := range c.lines {
		if l != held[i] {
			t.Fatalf("way %d holds line %p after refills, want %p", i, l, held[i])
		}
	}
}
