package stripe

import (
	"cmp"
	"fmt"
	"slices"
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
// a caller's buffer.
type Extent struct {
	Off int64
	Len int64
}

// PlanSection plans an access to the array section sec through a packed
// buffer holding its elements in row-major order of the section: one
// file run per row of the section along the last dimension.
func (g *Geometry) PlanSection(sec Section) ([]BrickIO, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := sec.Validate(g.Dims); err != nil {
		return nil, err
	}
	var p planner
	p.init(g, nil)
	nd := len(g.Dims)
	abs := make([]int64, nd)
	iterOuter(sec.Count, func(pos []int64) {
		for d := range abs {
			abs[d] = sec.Start[d] + pos[d]
		}
		p.put(rowMajorOffset(abs, g.Dims)*g.ElemSize, sec.Count[nd-1]*g.ElemSize)
	})
	return p.finish(), nil
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
func (g *Geometry) Plan(file, mem []Extent) ([]BrickIO, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	size := g.Size()
	var n int64
	for _, e := range file {
		if e.Off < 0 || e.Len < 0 || e.Len > size-e.Off {
			return nil, fmt.Errorf("stripe: extent [%d,%d) outside file of %d bytes", e.Off, e.Off+e.Len, size)
		}
		n += e.Len
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
	var p planner
	p.init(g, mem)
	for _, e := range file {
		p.put(e.Off, e.Len)
	}
	return p.finish(), nil
}

// planner accumulates a plan's segments brick by brick.
type planner struct {
	g      *Geometry
	bricks []BrickIO
	at     map[int]int // brick id -> index in bricks, once there are several
	// recent caches at for the bricks placed last, by id modulo its
	// size: consecutive rows cross the same few bricks over and over.
	recent [8]struct{ id, i int }

	// The tiled levels. Per dimension: the bricks' extent and count, and
	// for the row (along the last dimension) the last piece fell in, the
	// brick it lies in and its offset inside that brick.
	ext, cnt, brick, rel []int64
	// That row's logical byte range, the id of its first brick and its
	// row index inside the bricks it crosses.
	rowOff, rowEnd, rowBrick, rowInner int64

	// The piece placed last and its brick (-1: none yet).
	last      Segment
	lastBrick int

	// The memory runs (nil: the packed buffer), the one in use and how
	// many of its bytes are taken.
	mem   []Extent
	run   int
	taken int64
}

func (p *planner) init(g *Geometry, mem []Extent) {
	p.g, p.lastBrick, p.mem = g, -1, mem
	for i := range p.recent {
		p.recent[i].id = -1
	}
	if g.Level != LevelLinear {
		nd := len(g.Dims)
		v := make([]int64, 4*nd)
		p.ext, p.cnt, p.brick, p.rel = v[:nd], v[nd:2*nd], v[2*nd:3*nd], v[3*nd:]
		for d := range g.Dims {
			p.ext[d], p.cnt[d] = g.tiling(d)
		}
		p.seekRow(0)
	}
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
	last := len(g.Dims) - 1
	es := g.ElemSize
	rowBytes, extBytes := g.Dims[last]*es, p.ext[last]*es
	for n > 0 {
		switch {
		case off >= p.rowOff && off < p.rowEnd:
		case off >= p.rowEnd && off-p.rowEnd < rowBytes:
			p.nextRow()
		default:
			p.seekRow(off / rowBytes)
		}
		col := off - p.rowOff
		for bc := col / extBytes; n > 0 && col < rowBytes; bc++ {
			origin := bc * extBytes
			lay := p.ext[last]
			if g.Level == LevelArray {
				// A chunk stores its own clipped shape, a tile its full one.
				lay = min(lay, g.Dims[last]-bc*p.ext[last])
			}
			k := min(n, min(origin+extBytes, rowBytes)-col)
			p.add(int(p.rowBrick+bc), Segment{BrickOff: p.rowInner*lay*es + col - origin, MemOff: mem, Len: k})
			col, mem, n = col+k, mem+k, n-k
		}
		off = p.rowOff + col
	}
}

// seekRow points the row cache at row r of the file, its index over all
// but the last dimension.
func (p *planner) seekRow(r int64) {
	g := p.g
	last := len(g.Dims) - 1
	rowBytes := g.Dims[last] * g.ElemSize
	p.rowOff, p.rowEnd = r*rowBytes, (r+1)*rowBytes
	for d := last - 1; d >= 0; d-- {
		c := r % g.Dims[d]
		r /= g.Dims[d]
		p.brick[d], p.rel[d] = c/p.ext[d], c%p.ext[d]
	}
	p.rowIDs()
}

// nextRow steps the row cache on to the following row.
func (p *planner) nextRow() {
	g := p.g
	d := len(g.Dims) - 2
	p.rowOff, p.rowEnd = p.rowEnd, 2*p.rowEnd-p.rowOff
	if d >= 0 && p.rel[d]+1 < p.ext[d] && p.brick[d]*p.ext[d]+p.rel[d]+1 < g.Dims[d] {
		// One row further into the same bricks.
		p.rel[d]++
		p.rowInner++
		return
	}
	for ; d >= 0; d-- {
		if p.rel[d]++; p.rel[d] == p.ext[d] {
			p.brick[d], p.rel[d] = p.brick[d]+1, 0
		}
		if p.brick[d]*p.ext[d]+p.rel[d] < g.Dims[d] {
			break
		}
		p.brick[d], p.rel[d] = 0, 0
	}
	p.rowIDs()
}

// rowIDs derives the cached row's first brick and its row inside it.
func (p *planner) rowIDs() {
	g := p.g
	last := len(g.Dims) - 1
	var id, inner int64
	for d := 0; d < last; d++ {
		lay := p.ext[d]
		if g.Level == LevelArray {
			lay = min(lay, g.Dims[d]-p.brick[d]*p.ext[d])
		}
		id = id*p.cnt[d] + p.brick[d]
		inner = inner*lay + p.rel[d]
	}
	p.rowBrick, p.rowInner = id*p.cnt[last], inner
}

// add places one piece. A piece continuing the last one in both spaces
// extends it; the last piece joins its brick only once another comes.
func (p *planner) add(brick int, s Segment) {
	if brick == p.lastBrick && s.MemOff == p.last.MemOff+p.last.Len && s.BrickOff == p.last.BrickOff+p.last.Len {
		p.last.Len += s.Len
		return
	}
	p.flush()
	p.lastBrick, p.last = brick, s
}

// flush appends the last piece to its brick's segments.
func (p *planner) flush() {
	brick := p.lastBrick
	if brick < 0 {
		return
	}
	c := &p.recent[uint(brick)%uint(len(p.recent))]
	if c.id != brick {
		i, ok := p.at[brick]
		if !ok {
			i = len(p.bricks)
			p.bricks = append(p.bricks, BrickIO{Brick: brick})
			if i == 1 {
				// A lone brick never leaves recent; the map starts with two.
				p.at = map[int]int{p.bricks[0].Brick: 0}
			}
			if i > 0 {
				p.at[brick] = i
			}
		}
		c.id, c.i = brick, i
	}
	p.bricks[c.i].Segs = append(p.bricks[c.i].Segs, p.last)
}

// finish orders the plan and merges each brick's neighbours.
func (p *planner) finish() []BrickIO {
	p.flush()
	byMem := func(a, b Segment) int { return cmp.Compare(a.MemOff, b.MemOff) }
	for i, b := range p.bricks {
		if !slices.IsSortedFunc(b.Segs, byMem) {
			slices.SortFunc(b.Segs, byMem)
		}
		p.bricks[i].Segs = coalesce(b.Segs)
	}
	slices.SortFunc(p.bricks, func(a, b BrickIO) int { return a.Brick - b.Brick })
	return p.bricks
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
