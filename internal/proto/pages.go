package proto

import "slices"

// Pages is a sparse table of pages keyed by address: a page of type P
// covers PageBytes of simulated memory, and a page never created reads
// as nil. The committed memory image keeps pages of word values in one;
// the DeNovo registry and the MESI directory keep pages of LinesPerPage
// line-record pointers.
//
// Below DenseLimit, which every allocator address stays under, a page is
// found through a two-level table: dir, indexed by the address's 4 MiB
// block and grown to the highest block used, holds each block's page
// pointers, so a lookup is two indexed loads. The few pages above
// DenseLimit, if any, sit in a map. Walk visits pages in address order.
type Pages[P any] struct {
	dir []*[blockPages]*P
	far map[Addr]*P // by page number; nil until used
}

const (
	// PageShift is log2(PageBytes).
	PageShift = 12
	// PageBytes is the span of simulated memory one page covers. Pages
	// are line-aligned, so a line never straddles two.
	PageBytes = 1 << PageShift
	// LinesPerPage is the number of lines a page covers.
	LinesPerPage = PageBytes / LineBytes
	// DenseLimit bounds the addresses found through the block table.
	DenseLimit = 1 << 32

	blockShift = 22 // a dir entry covers 4 MiB: blockPages pages
	blockPages = 1 << (blockShift - PageShift)
)

// PageLine returns the index of a's line within its page
// (0..LinesPerPage-1).
func (a Addr) PageLine() int { return int(a%PageBytes) / LineBytes }

// Get returns the page holding a, or nil if none was created.
func (t *Pages[P]) Get(a Addr) *P {
	if a < DenseLimit {
		if b := a >> blockShift; b < Addr(len(t.dir)) && t.dir[b] != nil {
			return t.dir[b][a>>PageShift%blockPages]
		}
		return nil
	}
	return t.far[a>>PageShift]
}

// Page returns the page holding a, creating a zero page if needed.
func (t *Pages[P]) Page(a Addr) *P {
	if p := t.Get(a); p != nil {
		return p
	}
	p := new(P)
	if a < DenseLimit {
		b := int(a >> blockShift)
		for len(t.dir) <= b {
			t.dir = append(t.dir, nil)
		}
		if t.dir[b] == nil {
			t.dir[b] = new([blockPages]*P)
		}
		t.dir[b][a>>PageShift%blockPages] = p
		return p
	}
	if t.far == nil {
		t.far = make(map[Addr]*P)
	}
	t.far[a>>PageShift] = p
	return p
}

// Walk calls fn on every created page in ascending address order, with
// the address of the page's first byte.
func (t *Pages[P]) Walk(fn func(base Addr, p *P)) {
	for b, blk := range t.dir {
		if blk == nil {
			continue
		}
		for i, p := range blk {
			if p != nil {
				fn(Addr(b)<<blockShift|Addr(i)<<PageShift, p)
			}
		}
	}
	if len(t.far) == 0 {
		return
	}
	nums := make([]Addr, 0, len(t.far))
	for n := range t.far {
		nums = append(nums, n)
	}
	slices.Sort(nums)
	for _, n := range nums {
		fn(n<<PageShift, t.far[n])
	}
}
