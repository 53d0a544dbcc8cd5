package core

import (
	"sort"

	"dpfs/internal/stripe"
	"dpfs/internal/wire"
)

// exchange is the wire form of one server exchange as layExtents lays
// it out.
type exchange struct {
	exts []wire.Extent
	sel  []byte // the selections, encoded
	// segs is a write's payload: the pieces, brick by brick in brick
	// order.
	segs  [][]byte
	moved int64 // the bytes that travel: a write's payload, a read's response
}

// fetched is what one brick of a read brings back: n bytes — the brick's
// stored bytes from lo on, or, when its pieces leave holes in its span,
// exactly the wanted pieces in brick order.
type fetched struct {
	lo, n  int64
	sieved bool
}

// layExtents lays out one server exchange covering bricks, brick i
// stored in slot slots[i] of the server's subfile; fill says a data
// cache will keep what a read brings, and buf is the caller's buffer. A
// read also gets, appended to got, what each brick's share of the
// response is. (got stays out of the exchange so that a caller's
// one-element array for it stays off the heap.)
//
// Either direction moves one span per brick: the whole brick when a read
// fills a cache, else the covering span of the wanted pieces, whose
// holes a read's server sweeps and sieves and a write's skips as it
// scatters the pieces. Pieces that share bytes (a tangled view) have no
// selection: a read moves their span whole, and a write, which holds no
// bytes for the span around them, sends each piece as a span of its own.
//
// Spans join into extents in request order by one rule: a span joins
// the open extent when the gap between them is not negative and no wider
// than the widest hole between consecutive pieces already inside the
// extent or inside the span itself, and the gap, if any, keeps the
// request's extents within the wire.MaxMessage a server accepts;
// otherwise it opens a new extent. The server sweeps an extent in one
// positioned pass — one pread or pwrite when plain — and the storage
// model charges one PerExtent for it, so a joined gap costs no
// positioning and the device no more than the holes it already crosses. With no holes the rule is plain adjacency: runs
// adjacent in the subfile (neighbouring bricks' slots, fragments gathered
// from scattered memory) travel as one extent. An extent its pieces
// cover travels plain; any other carries one selection, its pieces
// relative to the extent folded by stripe.Runs. Write payloads are not
// packed into an intermediate buffer: each memory run rides as a scatter
// segment that the wire layer flushes with vectored I/O.
func layExtents(g *stripe.Geometry, bricks []stripe.BrickIO, slots []int64, fill bool, buf []byte, write bool, got []fetched) (exchange, []fetched) {
	var x exchange
	j := joiner{exts: make([]wire.Extent, 0, len(bricks))}
	for bi := range bricks {
		j.segs += len(bricks[bi].Segs)
	}
	if write {
		x.segs = make([][]byte, 0, j.segs)
	}
	slot := g.SlotBytes()
	for bi := range bricks {
		b := &bricks[bi]
		base := slots[bi] * slot
		if fill || len(b.Segs) == 0 {
			if write {
				continue // nothing to send: not the whole brick a read of it would ask for
			}
			n := g.BrickBytesOf(b.Brick)
			j.add(base, []stripe.Segment{{Len: n}})
			got = append(got, fetched{n: n})
			x.moved += n
			continue
		}
		ordered := brickOrder(b.Segs)
		lo, hi, tangled := ordered[0].BrickOff, int64(0), false
		for _, seg := range ordered {
			tangled = tangled || seg.BrickOff < hi
			hi = max(hi, seg.BrickOff+seg.Len)
		}
		n, sieved := b.Bytes(), false // what the brick moves
		switch {
		case tangled && write:
			for i := range ordered {
				j.add(base, ordered[i:i+1])
			}
		case tangled:
			j.add(base, []stripe.Segment{{BrickOff: lo, Len: hi - lo}})
			n = hi - lo
		default:
			sieved = j.add(base, ordered) > 0
		}
		if write {
			for _, seg := range ordered {
				x.segs = append(x.segs, buf[seg.MemOff:seg.MemOff+seg.Len])
			}
		} else {
			got = append(got, fetched{lo: lo, n: n, sieved: sieved})
		}
		x.moved += n
	}
	j.close()
	x.exts, x.sel = j.exts, j.sel
	return x, got
}

// joiner joins spans into extents for layExtents: the extents and
// their selections so far, and the open extent's state.
type joiner struct {
	exts  []wire.Extent
	sel   []byte
	hole  int64 // the widest hole between the open extent's pieces; 0 is none
	total int64 // the extents' bytes, which a server caps at wire.MaxMessage
	// pieces are the open extent's pieces at their subfile offsets,
	// kept only once it has a hole: until then it is its one piece.
	pieces []stripe.Segment
	segs   int // the request's segments, which size pieces when first needed
	runs   []wire.Run
}

// add puts the span whose pieces are ps — sorted and disjoint, at
// base+BrickOff in the subfile — into the open extent or a new one, and
// returns the widest hole between them.
func (j *joiner) add(base int64, ps []stripe.Segment) int64 {
	last := ps[len(ps)-1]
	lo, hi := base+ps[0].BrickOff, base+last.BrickOff+last.Len
	var h int64 // the span's own widest hole
	for i := 1; i < len(ps); i++ {
		h = max(h, ps[i].BrickOff-ps[i-1].BrickOff-ps[i-1].Len)
	}
	if k := len(j.exts); k > 0 {
		e := &j.exts[k-1]
		gap := lo - e.Off - e.Len
		if gap >= 0 && gap <= max(j.hole, h) && (gap == 0 || j.total+gap+hi-lo <= wire.MaxMessage) {
			if hole := max(j.hole, h, gap); hole > 0 {
				if j.hole == 0 {
					j.pieces = append(j.emptyPieces(), stripe.Segment{BrickOff: e.Off, Len: e.Len})
				}
				j.hole = hole
				j.collect(base, ps)
			}
			j.total += hi - e.Off - e.Len
			e.Len = hi - e.Off
			return h
		}
		j.close()
	}
	j.exts = append(j.exts, wire.Extent{Off: lo, Len: hi - lo})
	j.total += hi - lo
	j.hole = h
	if h > 0 {
		j.pieces = j.emptyPieces()
		j.collect(base, ps)
	}
	return h
}

// emptyPieces returns the pieces emptied, sized for every segment of
// the request the first time.
func (j *joiner) emptyPieces() []stripe.Segment {
	if j.pieces == nil {
		return make([]stripe.Segment, 0, j.segs+1)
	}
	return j.pieces[:0]
}

// collect appends ps, shifted to their subfile offsets, to the pieces.
func (j *joiner) collect(base int64, ps []stripe.Segment) {
	for _, p := range ps {
		j.pieces = append(j.pieces, stripe.Segment{BrickOff: base + p.BrickOff, Len: p.Len})
	}
}

// close gives the open extent, if its pieces leave a hole, its selection.
func (j *joiner) close() {
	if j.hole == 0 {
		return
	}
	k := len(j.exts) - 1
	runs, _ := stripe.Runs(j.pieces, j.exts[k].Off, j.exts[k].Off+j.exts[k].Len)
	j.runs = j.runs[:0]
	for _, r := range runs {
		j.runs = append(j.runs, wire.Run(r))
	}
	j.sel = wire.AppendSelection(j.sel, k, j.runs)
	j.hole = 0
}

// brickOrder returns the segments sorted by brick offset (plans sort
// by memory offset). The common aligned cases are already in brick
// order, so the copy is skipped when possible.
func brickOrder(segs []stripe.Segment) []stripe.Segment {
	sorted := true
	for i := 1; i < len(segs); i++ {
		if segs[i].BrickOff < segs[i-1].BrickOff {
			sorted = false
			break
		}
	}
	if sorted {
		return segs
	}
	out := append([]stripe.Segment(nil), segs...)
	sort.Slice(out, func(i, j int) bool { return out[i].BrickOff < out[j].BrickOff })
	return out
}
