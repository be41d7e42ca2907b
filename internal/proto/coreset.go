package proto

import "math/bits"

// CoreSet is a set of core IDs, one bit per core, iterated in ascending
// ID order. The zero value is empty; Clear keeps the storage, so a set
// that is emptied and refilled allocates nothing once it has grown to
// its largest member.
type CoreSet []uint64

// Add inserts id.
func (s *CoreSet) Add(id CoreID) {
	w := int(id) / 64
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << (uint(id) % 64)
}

// Has reports whether id is in the set.
func (s CoreSet) Has(id CoreID) bool {
	w := int(id) / 64
	return w < len(s) && s[w]&(1<<(uint(id)%64)) != 0
}

// Clear removes every member.
func (s CoreSet) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Len returns the number of members.
func (s CoreSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Next returns the smallest member >= from, or -1 if there is none:
// `for id := s.Next(0); id >= 0; id = s.Next(id + 1)` visits the set in
// ascending order.
func (s CoreSet) Next(from CoreID) CoreID {
	for w := int(from) / 64; w < len(s); w++ {
		word := s[w]
		if w == int(from)/64 {
			word &= ^uint64(0) << (uint(from) % 64)
		}
		if word != 0 {
			return CoreID(w*64 + bits.TrailingZeros64(word))
		}
	}
	return -1
}
