package proto

import (
	"slices"
	"testing"
)

// pagesOpBytes is the size of one encoded FuzzPages operation.
const pagesOpBytes = 4

// pagesAddr decodes an operation's address. The low bit of b[0] picks
// the span: from address 0, or straddling DenseLimit, so that block
// indices 0-3 fall below it and 4-7 above it. b[1] picks the 4 MiB
// block, b[2] the page within it and b[3] the offset within the page.
func pagesAddr(b []byte) Addr {
	base := Addr(0)
	if b[0]&1 != 0 {
		base = DenseLimit - 4<<blockShift
	}
	return base + Addr(b[1]%8)<<blockShift + Addr(b[2])<<PageShift + Addr(b[3])*16
}

// checkPages runs an encoded program of Get, Page and Walk operations
// against a Pages table and a model — a map by page number whose keys
// are sorted for the walk — and fails on any difference: a page read
// back must be the one created for its address, and Walk must visit
// exactly the created pages in ascending address order.
func checkPages(t *testing.T, prog []byte) {
	var tbl Pages[[2]Addr]
	model := map[Addr]*[2]Addr{}
	walk := func() {
		var nums []Addr
		for n := range model {
			nums = append(nums, n)
		}
		slices.Sort(nums)
		i := 0
		tbl.Walk(func(base Addr, p *[2]Addr) {
			if i >= len(nums) || base != nums[i]<<PageShift || p != model[nums[i]] || p[0] != base {
				t.Fatalf("walk step %d: page at %v (holding %v), want the %d created pages in address order %v", i, base, p[0], len(nums), nums)
			}
			i++
		})
		if i != len(nums) {
			t.Fatalf("walk visited %d pages, want %d", i, len(nums))
		}
	}
	for ; len(prog) >= pagesOpBytes; prog = prog[pagesOpBytes:] {
		a := pagesAddr(prog)
		want := model[a>>PageShift]
		switch (prog[0] >> 1) % 3 {
		case 0:
			if got := tbl.Get(a); got != want {
				t.Fatalf("Get(%v) = %p, want %p", a, got, want)
			}
		case 1:
			got := tbl.Page(a)
			if want == nil {
				if got == nil || *got != ([2]Addr{}) {
					t.Fatalf("Page(%v) created %v, want a zero page", a, got)
				}
				got[0] = a &^ (PageBytes - 1)
				model[a>>PageShift] = got
			} else if got != want {
				t.Fatalf("Page(%v) = %p, want the page created before, %p", a, got, want)
			}
		case 2:
			walk()
		}
	}
	walk()
}

// FuzzPages checks Pages against a sorted-map model on addresses on
// both sides of DenseLimit; the checked-in corpus under
// testdata/fuzz/FuzzPages runs as seeds with every go test.
func FuzzPages(f *testing.F) {
	f.Fuzz(checkPages)
}

// TestPageLine: a line's index in its page counts lines from the page's
// first byte.
func TestPageLine(t *testing.T) {
	for _, c := range []struct {
		a    Addr
		want int
	}{{0, 0}, {LineBytes - 1, 0}, {LineBytes, 1}, {PageBytes - 1, LinesPerPage - 1}, {PageBytes, 0}, {DenseLimit + 3*LineBytes + 8, 3}} {
		if got := c.a.PageLine(); got != c.want {
			t.Errorf("Addr(%v).PageLine() = %d, want %d", c.a, got, c.want)
		}
	}
}
