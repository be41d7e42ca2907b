package proto

import (
	"testing"
	"testing/quick"
)

func TestAddrGeometry(t *testing.T) {
	a := Addr(0x1234)
	if a.Line() != 0x1200 {
		t.Fatalf("Line = %v", a.Line())
	}
	if a.Word() != 0x1234 {
		t.Fatalf("Word = %v", a.Word())
	}
	if Addr(0x1236).Word() != 0x1234 {
		t.Fatal("sub-word align broken")
	}
	if a.WordIndex() != 13 {
		t.Fatalf("WordIndex = %d", a.WordIndex())
	}
}

// Properties of address arithmetic.
func TestAddrProperties(t *testing.T) {
	f := func(raw uint32) bool {
		a := Addr(raw)
		// Line() and Word() are idempotent projections.
		if a.Line().Line() != a.Line() || a.Word().Word() != a.Word() {
			return false
		}
		// A word belongs to its line.
		if a.Word().Line() != a.Line() {
			return false
		}
		// WordIndex reconstructs the word address.
		if a.Line()+Addr(a.WordIndex()*WordBytes) != a.Word() {
			return false
		}
		return a.WordIndex() >= 0 && a.WordIndex() < WordsPerLine
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegionSet(t *testing.T) {
	s := NewRegionSet(1, 5, 63)
	for _, r := range []RegionID{1, 5, 63} {
		if !s.Has(r) {
			t.Fatalf("missing region %d", r)
		}
	}
	if s.Has(2) || s.Has(0) {
		t.Fatal("spurious region")
	}
	if s.Has(-1) || s.Has(64) {
		t.Fatal("out-of-range Has returned true")
	}
	if !s.Union(NewRegionSet(2)).Has(2) {
		t.Fatal("union broken")
	}
	if !RegionSet(0).Empty() || s.Empty() {
		t.Fatal("Empty broken")
	}
	if !AllRegions.Has(0) || !AllRegions.Has(63) {
		t.Fatal("AllRegions incomplete")
	}
}

func TestRegionSetAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Add did not panic")
		}
	}()
	NewRegionSet(64)
}

// Property: membership after arbitrary adds matches a reference map.
func TestRegionSetProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		var s RegionSet
		ref := map[RegionID]bool{}
		for _, id := range ids {
			r := RegionID(id % MaxRegions)
			s = s.Add(r)
			ref[r] = true
		}
		for r := RegionID(0); r < MaxRegions; r++ {
			if s.Has(r) != ref[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccessKindPredicates(t *testing.T) {
	cases := []struct {
		k     AccessKind
		sync  bool
		write bool
	}{
		{DataLoad, false, false},
		{DataStore, false, true},
		{SyncLoad, true, false},
		{SyncStore, true, true},
		{SyncRMW, true, true},
	}
	for _, c := range cases {
		if c.k.IsSync() != c.sync || c.k.IsWrite() != c.write {
			t.Fatalf("%v predicates wrong", c.k)
		}
	}
}

func TestStringers(t *testing.T) {
	if ClassSynch.String() != "SYNCH" || SyncRMW.String() != "SyncRMW" {
		t.Fatal("stringers broken")
	}
	if MsgClass(99).String() == "" || AccessKind(99).String() == "" {
		t.Fatal("unknown-value stringers empty")
	}
}

// TestCoreSet: members come back in ascending order across word
// boundaries, and Clear empties the set without shrinking it.
func TestCoreSet(t *testing.T) {
	var s CoreSet
	for _, id := range []CoreID{70, 3, 64, 0, 63} {
		s.Add(id)
	}
	var got []CoreID
	for id := s.Next(0); id >= 0; id = s.Next(id + 1) {
		got = append(got, id)
	}
	want := []CoreID{0, 3, 63, 64, 70}
	if len(got) != len(want) {
		t.Fatalf("members %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members %v, want %v", got, want)
		}
	}
	if s.Len() != 5 || !s.Has(64) || s.Has(65) || s.Has(200) {
		t.Fatalf("Len %d, Has(64) %t, Has(65) %t, Has(200) %t", s.Len(), s.Has(64), s.Has(65), s.Has(200))
	}
	words := len(s)
	s.Clear()
	if s.Len() != 0 || s.Next(0) != -1 || len(s) != words {
		t.Fatalf("after Clear: Len %d, Next %d, %d words (want 0, -1, %d)", s.Len(), s.Next(0), len(s), words)
	}
}

// TestInboxReusesSlots: a freed slot is reused by the next post, a
// message read in place survives a post that grows the slab, and Len
// counts the messages not yet freed.
func TestInboxReusesSlots(t *testing.T) {
	var b Inbox[string]
	a, c := b.Post("a"), b.Post("c")
	if b.Len() != 2 || *b.At(a) != "a" {
		t.Fatal("Post/At/Len disagree")
	}
	b.Free(a)
	if b.Len() != 1 {
		t.Fatal("Free did not release the slot")
	}
	if d := b.Post("d"); d != a {
		t.Fatalf("post after free used slot %d, want the freed slot %d", d, a)
	}
	m := b.At(c)
	for i := 0; i < 100; i++ {
		b.Post("grow")
	}
	if *m != "c" || *b.At(a) != "d" {
		t.Fatal("messages came back wrong")
	}
}
