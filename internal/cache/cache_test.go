package cache

import (
	"testing"
	"testing/quick"

	"denovosync/internal/proto"
)

func lineAddr(i int) proto.Addr { return proto.Addr(i * proto.LineBytes) }

func TestGeometry(t *testing.T) {
	c := New(32*1024, 8)
	if c.Sets() != 64 || c.Ways() != 8 {
		t.Fatalf("geometry = %d sets x %d ways", c.Sets(), c.Ways())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two sets did not panic")
		}
	}()
	New(3*proto.LineBytes, 1)
}

func TestInstallLookup(t *testing.T) {
	c := New(1024, 2)
	a := lineAddr(1)
	if c.Lookup(a) != nil {
		t.Fatal("lookup hit in empty cache")
	}
	v := c.Victim(a)
	c.Install(v, a+4) // any addr within the line
	got := c.Lookup(a + 60)
	if got == nil || got.Addr != a {
		t.Fatalf("lookup after install = %v", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2*proto.LineBytes, 2) // 1 set, 2 ways
	for i := 0; i < 2; i++ {
		c.Install(c.Victim(lineAddr(i)), lineAddr(i))
	}
	// Touch line 0 so line 1 becomes LRU.
	c.Touch(c.Lookup(lineAddr(0)))
	v := c.Victim(lineAddr(2))
	if v.Addr != lineAddr(1) {
		t.Fatalf("victim = %v, want line 1", v.Addr)
	}
	c.Install(v, lineAddr(2))
	if c.Lookup(lineAddr(1)) != nil {
		t.Fatal("evicted line still indexed")
	}
	if c.Lookup(lineAddr(0)) == nil || c.Lookup(lineAddr(2)) == nil {
		t.Fatal("resident lines lost")
	}
}

func TestInstallClearsWordState(t *testing.T) {
	c := New(proto.LineBytes, 1)
	l := c.Victim(lineAddr(0))
	c.Install(l, lineAddr(0))
	l.WordState[3] = 2
	l.Values[3] = 99
	l.Regions[3] = 7
	l.LineState = 5
	c.Install(l, lineAddr(1))
	if l.WordState[3] != 0 || l.Values[3] != 0 || l.Regions[3] != 0 || l.LineState != 0 {
		t.Fatal("Install did not clear metadata")
	}
}

func TestEvict(t *testing.T) {
	c := New(proto.LineBytes, 1)
	l := c.Victim(lineAddr(0))
	c.Install(l, lineAddr(0))
	c.Evict(l)
	if c.Lookup(lineAddr(0)) != nil || c.Len() != 0 || l.Present {
		t.Fatal("Evict left residue")
	}
	c.Evict(l) // idempotent on absent line
}

func TestForEach(t *testing.T) {
	c := New(4*proto.LineBytes, 4)
	for i := 0; i < 3; i++ {
		c.Install(c.Victim(lineAddr(i)), lineAddr(i))
	}
	seen := map[proto.Addr]bool{}
	c.ForEach(func(l *Line) { seen[l.Addr] = true })
	if len(seen) != 3 {
		t.Fatalf("ForEach visited %d lines, want 3", len(seen))
	}
}

// Property: the LRU stack property — after any access sequence over a
// single set, the victim is always the least recently installed-or-touched
// present line.
func TestLRUStackProperty(t *testing.T) {
	f := func(accesses []uint8) bool {
		const ways = 4
		c := New(ways*proto.LineBytes, ways) // one set
		var order []proto.Addr               // recency order, most recent last
		touch := func(a proto.Addr) {
			for i, x := range order {
				if x == a {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
			order = append(order, a)
		}
		for _, acc := range accesses {
			a := lineAddr(int(acc % 8))
			if l := c.Lookup(a); l != nil {
				c.Touch(l)
				touch(a)
				continue
			}
			v := c.Victim(a)
			if v.Present {
				// Must be the model's LRU (front of order).
				if v.Addr != order[0] {
					return false
				}
				order = order[1:]
			}
			c.Install(v, a)
			touch(a)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
