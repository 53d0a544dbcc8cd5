package stripe

import (
	"cmp"
	"fmt"
	"slices"

	"dpfs/internal/datatype"
)

// Segment describes one contiguous byte run to move between a brick's
// storage and the caller's buffer.
type Segment struct {
	// BrickOff is the byte offset within the brick's stored bytes.
	BrickOff int64
	// MemOff is the byte offset within the caller's buffer.
	MemOff int64
	// Len is the run length in bytes.
	Len int64
}

// BrickIO is the complete set of segments an access touches within one
// brick. Plans list bricks in ascending brick-id order and each brick's
// segments in ascending MemOff order.
type BrickIO struct {
	Brick int
	Segs  []Segment
}

// Bytes returns the number of payload bytes the brick access moves.
func (b *BrickIO) Bytes() int64 {
	var n int64
	for _, s := range b.Segs {
		n += s.Len
	}
	return n
}

// Extent is a contiguous byte run: of a file's logical byte space, or of
// a caller's buffer. It is the run a datatype lists, so the runs of an
// access's file and memory types are planned as they are listed.
type Extent = datatype.Segment

// PlanSection plans an access to the array section sec through a packed
// buffer holding its elements in row-major order of the section: one
// file run per row of the section along the last dimension, rows that
// continue each other joined.
func (g *Geometry) PlanSection(sec Section) ([]BrickIO, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := sec.Validate(g.Dims); err != nil {
		return nil, err
	}
	nd := len(g.Dims)
	row := sec.Count[nd-1] * g.ElemSize
	runs := make([]Extent, 0, prod(sec.Count[:nd-1]))
	abs := make([]int64, nd)
	iterOuter(sec.Count, func(pos []int64) {
		for d := range abs {
			abs[d] = sec.Start[d] + pos[d]
		}
		off := rowMajorOffset(abs, g.Dims) * g.ElemSize
		if k := len(runs); k > 0 && runs[k-1].Off+runs[k-1].Len == off {
			runs[k-1].Len += row
			return
		}
		runs = append(runs, Extent{Off: off, Len: row})
	})
	return g.Plan(runs, nil)
}

// PlanExtents plans a byte access: the file's extents, in order, through
// one packed buffer.
func (g *Geometry) PlanExtents(exts []Extent) ([]BrickIO, error) { return g.Plan(exts, nil) }

// Plan is the planner behind every access, on every level. file lists
// runs of the file's logical byte space — the array stored row-major,
// whatever the level stores it as — and mem the runs of the caller's
// buffer they move to or from. The two are consumed in step, so the
// i-th byte of the file runs pairs with the i-th byte of the memory
// runs, and both must hold the same number of bytes; nil mem is the
// packed buffer [0, n). Each piece is cut where it leaves a brick: at
// brick edges on a linear file, at row ends and brick edges along the
// last dimension on the tiled levels. The plan lists the bricks touched
// in ascending order, each brick's segments in ascending MemOff order
// with neighbours adjacent in both spaces merged, so an access plans the
// same however its runs are cut.
//
// A plan costs a fixed number of allocations however many pieces and
// bricks it holds: the pieces are counted from the runs and the brick
// edges they cross before any is placed, every brick's segments share
// one backing array, and each BrickIO's Segs is capped at its own
// length, so appending to it never writes into another brick's.
func (g *Geometry) Plan(file, mem []Extent) ([]BrickIO, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	var p planner
	p.init(g, mem)
	size := g.Size()
	var n int64
	pieces := int64(len(mem)) // a memory run's end cuts at most one more piece
	for _, e := range file {
		if e.Off < 0 || e.Len < 0 || e.Len > size-e.Off {
			return nil, fmt.Errorf("stripe: extent [%d,%d) outside file of %d bytes", e.Off, e.Off+e.Len, size)
		}
		n += e.Len
		pieces += p.cuts(e.Off, e.Len)
	}
	var m int64
	for _, e := range mem {
		if e.Off < 0 || e.Len < 0 || e.Len > n-m {
			return nil, fmt.Errorf("stripe: memory run [%d,%d) is negative or past the file runs' %d bytes", e.Off, e.Off+e.Len, n)
		}
		m += e.Len
	}
	if mem != nil && m != n {
		return nil, fmt.Errorf("stripe: memory runs hold %d bytes, file runs %d", m, n)
	}
	p.segs = make([]Segment, 0, pieces)
	for _, e := range file {
		p.put(e.Off, e.Len)
	}
	return p.finish(), nil
}

// planner cuts an access into pieces, one per brick each run crosses,
// and groups them by brick.
type planner struct {
	g *Geometry

	// The tiled levels, seen with every trailing dimension whose bricks
	// span it whole folded into the one before it: a brick stores the
	// rows of such a dimension back to back, so they are one longer row.
	// Per dimension of that view: its length and its bricks' extent and
	// count, and for the row the last piece fell in, the brick it lies
	// in and its offset inside that brick.
	dims, ext, cnt, brick, rel []int64
	// That row's logical byte range, the id of its first brick and its
	// row index inside the bricks it crosses.
	rowOff, rowEnd, rowBrick, rowInner int64

	// The pieces placed so far, in placement order, and their bricks,
	// all of them between lo and hi; ids stays nil while every piece lies
	// in one brick, lo. lastBrick is the last piece's.
	segs      []Segment
	ids       []int
	lo, hi    int
	lastBrick int

	// The memory runs (nil: the packed buffer), the one in use and how
	// many of its bytes are taken.
	mem   []Extent
	run   int
	taken int64
}

func (p *planner) init(g *Geometry, mem []Extent) {
	p.g, p.mem = g, mem
	if g.Level == LevelLinear {
		return
	}
	nd := len(g.Dims)
	v := make([]int64, 5*nd)
	p.dims, p.ext, p.cnt, p.brick, p.rel = v[:nd], v[nd:2*nd], v[2*nd:3*nd], v[3*nd:4*nd], v[4*nd:]
	for d := range g.Dims {
		p.dims[d] = g.Dims[d]
		p.ext[d], p.cnt[d] = g.tiling(d)
	}
	for ; nd > 1 && p.ext[nd-1] == p.dims[nd-1]; nd-- {
		p.dims[nd-2] *= p.dims[nd-1]
		p.ext[nd-2] *= p.dims[nd-1]
	}
	p.dims, p.ext, p.cnt, p.brick, p.rel = p.dims[:nd], p.ext[:nd], p.cnt[:nd], p.brick[:nd], p.rel[:nd]
	p.seekRow(0)
}

// cuts counts the pieces place cuts the file run [off, off+n) into.
func (p *planner) cuts(off, n int64) int64 {
	if n == 0 {
		return 0
	}
	g, end := p.g, off+n-1
	if g.Level == LevelLinear {
		return end/g.BrickBytes - off/g.BrickBytes + 1
	}
	last := len(p.dims) - 1
	rowBytes, extBytes := p.dims[last]*g.ElemSize, p.ext[last]*g.ElemSize
	r0, c0, r1, c1 := off/rowBytes, off%rowBytes/extBytes, end/rowBytes, end%rowBytes/extBytes
	if r0 == r1 {
		return c1 - c0 + 1
	}
	return (r1-r0)*p.cnt[last] - c0 + c1 + 1
}

// put places the file run [off, off+n), paired with the next n bytes of
// memory.
func (p *planner) put(off, n int64) {
	if p.mem == nil {
		p.place(off, p.taken, n)
		p.taken += n
		return
	}
	for n > 0 {
		for p.taken == p.mem[p.run].Len {
			p.run, p.taken = p.run+1, 0
		}
		k := min(n, p.mem[p.run].Len-p.taken)
		p.place(off, p.mem[p.run].Off+p.taken, k)
		off, n, p.taken = off+k, n-k, p.taken+k
	}
}

// place adds the piece [off, off+n) of the logical byte space, bound for
// the caller's buffer at mem, cut where it leaves a brick.
func (p *planner) place(off, mem, n int64) {
	g := p.g
	if g.Level == LevelLinear {
		for n > 0 {
			b := off / g.BrickBytes
			boff := off - b*g.BrickBytes
			k := min(n, g.BrickBytes-boff)
			p.add(int(b), Segment{BrickOff: boff, MemOff: mem, Len: k})
			off, mem, n = off+k, mem+k, n-k
		}
		return
	}
	last := len(p.dims) - 1
	es := g.ElemSize
	rowBytes, extBytes := p.dims[last]*es, p.ext[last]*es
	for n > 0 {
		switch {
		case off >= p.rowOff && off < p.rowEnd:
		case off >= p.rowEnd && off-p.rowEnd < rowBytes:
			p.nextRow()
		default:
			p.seekRow(off / rowBytes)
		}
		col, first, inner := off-p.rowOff, p.rowBrick, p.rowInner*es
		for bc := col / extBytes; n > 0 && col < rowBytes; bc++ {
			origin := bc * extBytes
			lay := p.ext[last]
			if g.Level == LevelArray {
				// A chunk stores its own clipped shape, a tile its full one.
				lay = min(lay, p.dims[last]-bc*p.ext[last])
			}
			k := min(n, min(origin+extBytes, rowBytes)-col)
			p.add(int(first+bc), Segment{BrickOff: inner*lay + col - origin, MemOff: mem, Len: k})
			col, mem, n = col+k, mem+k, n-k
		}
		off = p.rowOff + col
	}
}

// seekRow points the row cache at row r of the file, its index over all
// but the last dimension.
func (p *planner) seekRow(r int64) {
	last := len(p.dims) - 1
	rowBytes := p.dims[last] * p.g.ElemSize
	p.rowOff, p.rowEnd = r*rowBytes, (r+1)*rowBytes
	for d := last - 1; d >= 0; d-- {
		c := r % p.dims[d]
		r /= p.dims[d]
		p.brick[d], p.rel[d] = c/p.ext[d], c%p.ext[d]
	}
	p.rowIDs()
}

// nextRow steps the row cache on to the following row.
func (p *planner) nextRow() {
	d := len(p.dims) - 2
	p.rowOff, p.rowEnd = p.rowEnd, 2*p.rowEnd-p.rowOff
	if d >= 0 && p.rel[d]+1 < p.ext[d] && p.brick[d]*p.ext[d]+p.rel[d]+1 < p.dims[d] {
		// One row further into the same bricks.
		p.rel[d]++
		p.rowInner++
		return
	}
	for ; d >= 0; d-- {
		if p.rel[d]++; p.rel[d] == p.ext[d] {
			p.brick[d], p.rel[d] = p.brick[d]+1, 0
		}
		if p.brick[d]*p.ext[d]+p.rel[d] < p.dims[d] {
			break
		}
		p.brick[d], p.rel[d] = 0, 0
	}
	p.rowIDs()
}

// rowIDs derives the cached row's first brick and its row inside it.
func (p *planner) rowIDs() {
	last := len(p.dims) - 1
	var id, inner int64
	for d := 0; d < last; d++ {
		lay := p.ext[d]
		if p.g.Level == LevelArray {
			lay = min(lay, p.dims[d]-p.brick[d]*p.ext[d])
		}
		id = id*p.cnt[d] + p.brick[d]
		inner = inner*lay + p.rel[d]
	}
	p.rowBrick, p.rowInner = id*p.cnt[last], inner
}

// add places one piece. A piece continuing the last one in both spaces
// extends it.
func (p *planner) add(brick int, s Segment) {
	if k := len(p.segs) - 1; k >= 0 && brick == p.lastBrick {
		if last := &p.segs[k]; s.MemOff == last.MemOff+last.Len && s.BrickOff == last.BrickOff+last.Len {
			last.Len += s.Len
			return
		}
	}
	if p.ids == nil && len(p.segs) > 0 && brick != p.lo {
		// A second brick: from now on every piece notes its own.
		p.ids = make([]int, len(p.segs), cap(p.segs))
		for i := range p.ids {
			p.ids[i] = p.lo
		}
	}
	if p.ids != nil {
		p.ids = append(p.ids, brick)
		p.lo, p.hi = min(p.lo, brick), max(p.hi, brick)
	} else {
		p.lo, p.hi = brick, brick
	}
	p.segs = append(p.segs, s)
	p.lastBrick = brick
}

// finish groups the pieces by brick in ascending order, keeping their
// placement order inside a brick, then orders and merges each brick's
// segments. Pieces already in brick order stay where they are; others
// are moved to their places in the same array, found by a count when
// the bricks lie within a few per piece of each other, by a sort when
// they spread wider (an access touching bricks far apart).
func (p *planner) finish() []BrickIO {
	segs, ids, lo := p.segs, p.ids, p.lo
	switch {
	case len(segs) == 0:
		return nil
	case ids == nil:
		return []BrickIO{brickIO(lo, segs)}
	case slices.IsSorted(ids):
		return byBrick(segs, ids)
	}
	span := p.hi - lo + 1
	if span > 4*len(segs) {
		type keyed struct{ id, i int }
		order := make([]keyed, len(ids))
		for i, id := range ids {
			order[i] = keyed{id, i}
		}
		slices.SortFunc(order, func(a, b keyed) int { return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.i, b.i)) })
		for j, o := range order {
			ids[o.i] = j
		}
		permute(segs, ids)
		for j, o := range order {
			ids[j] = o.id
		}
		return byBrick(segs, ids)
	}
	// at[k] counts brick lo+k's pieces, then holds where the next goes.
	var small [64]int
	at := small[:0]
	if span < len(small) {
		at = small[:span+1]
	} else {
		at = make([]int, span+1)
	}
	for _, id := range ids {
		at[id-lo+1]++
	}
	n := 0
	for k := 1; k <= span; k++ {
		if at[k] > 0 {
			n++
		}
		at[k] += at[k-1]
	}
	for i, id := range ids {
		ids[i] = at[id-lo]
		at[id-lo]++
	}
	permute(segs, ids)
	bricks := make([]BrickIO, 0, n)
	for k, from := 0, 0; k < span; k++ {
		if at[k] > from {
			bricks = append(bricks, brickIO(lo+k, segs[from:at[k]]))
			from = at[k]
		}
	}
	return bricks
}

// permute moves each segs[i] to segs[dest[i]], in place; dest must be
// a permutation, and is left the identity.
func permute(segs []Segment, dest []int) {
	for i := range segs {
		for dest[i] != i {
			j := dest[i]
			segs[i], segs[j] = segs[j], segs[i]
			dest[i], dest[j] = dest[j], j
		}
	}
}

// byBrick makes the plan of pieces already grouped by brick, ids
// ascending.
func byBrick(segs []Segment, ids []int) []BrickIO {
	n := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1] {
			n++
		}
	}
	bricks := make([]BrickIO, 0, n)
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		bricks = append(bricks, brickIO(ids[i], segs[i:j]))
		i = j
	}
	return bricks
}

// brickIO makes one brick's access of its segments: sorted by MemOff,
// neighbours merged, capped at its length.
func brickIO(brick int, segs []Segment) BrickIO {
	byMem := func(a, b Segment) int { return cmp.Compare(a.MemOff, b.MemOff) }
	if !slices.IsSortedFunc(segs, byMem) {
		slices.SortFunc(segs, byMem)
	}
	segs = coalesce(segs)
	return BrickIO{Brick: brick, Segs: segs[:len(segs):len(segs)]}
}

// coalesce merges segments that are contiguous in both brick storage
// and the caller's buffer. Segs must be sorted by MemOff.
func coalesce(segs []Segment) []Segment {
	if len(segs) < 2 {
		return segs
	}
	out := segs[:1]
	for _, s := range segs[1:] {
		last := &out[len(out)-1]
		if s.MemOff == last.MemOff+last.Len && s.BrickOff == last.BrickOff+last.Len {
			last.Len += s.Len
			continue
		}
		out = append(out, s)
	}
	return out
}
