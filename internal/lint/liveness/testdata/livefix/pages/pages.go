// Package pages pins the paged-table shape of a persistent resource: a
// generic table whose page type is an array of record pointers, reached
// through the table's methods. Storing a record into a page's element
// is an allocation; nothing frees one. The table of plain values beside
// it holds no records, so it is not a resource.
package pages

// Pages maps an address to its page, creating pages on demand.
type Pages[P any] struct {
	dir []*P
}

// Get returns the page holding a, or nil.
func (t *Pages[P]) Get(a int) *P {
	if i := a / 64; i < len(t.dir) {
		return t.dir[i]
	}
	return nil
}

// Page returns the page holding a, creating it.
func (t *Pages[P]) Page(a int) *P {
	i := a / 64
	for len(t.dir) <= i {
		t.dir = append(t.dir, nil)
	}
	if t.dir[i] == nil {
		t.dir[i] = new(P)
	}
	return t.dir[i]
}

type lineRec struct {
	owner int
}

type recPage [64]*lineRec

type Ctl struct {
	lines  Pages[recPage]
	values Pages[[64]uint64]
}

// Write points line's record at owner and stores its value.
func (c *Ctl) Write(line, owner int, v uint64) {
	c.line(line).owner = owner
	c.values.Page(line)[line%64] = v
}

// Owner reads line's owner without creating its record.
func (c *Ctl) Owner(line int) int {
	if p := c.lines.Get(line); p != nil && p[line%64] != nil {
		return p[line%64].owner
	}
	return -1
}

func (c *Ctl) line(line int) *lineRec {
	p := c.lines.Page(line)
	if p[line%64] == nil {
		p[line%64] = &lineRec{}
	}
	return p[line%64]
}
