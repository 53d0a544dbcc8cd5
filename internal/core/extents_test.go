package core

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"dpfs/internal/stripe"
	"dpfs/internal/wire"
)

// brange is a byte range [off, off+n) of a subfile.
type brange struct{ off, n int64 }

// appendRange appends r, merged into the last range when adjacent.
func appendRange(rs []brange, r brange) []brange {
	if k := len(rs); k > 0 && rs[k-1].off+rs[k-1].n == r.off {
		rs[k-1].n += r.n
		return rs
	}
	return append(rs, r)
}

// unit is what one brick span contributes to a request, worked out
// without layExtents: the subfile ranges that travel, adjacent pieces
// merged, and whether they leave a hole in the span.
type unit struct{ pieces []brange }

func (u unit) lo() int64 { return u.pieces[0].off }
func (u unit) hi() int64 { return u.pieces[len(u.pieces)-1].off + u.pieces[len(u.pieces)-1].n }

// hole is the widest hole between the unit's pieces.
func (u unit) hole() int64 {
	var h int64
	for i := 1; i < len(u.pieces); i++ {
		h = max(h, u.pieces[i].off-u.pieces[i-1].off-u.pieces[i-1].n)
	}
	return h
}

// reference lists the units of a request in order, the extent count the
// rule before joining gave it — runs joined only when exactly adjacent,
// and a span with holes standing alone — and the bytes it moves.
func reference(g *stripe.Geometry, bricks []stripe.BrickIO, slots []int64, fill, write bool) (units []unit, parentExts int, moved int64) {
	for i, b := range bricks {
		if write && len(b.Segs) == 0 {
			continue
		}
		base := slots[i] * g.SlotBytes()
		if fill || len(b.Segs) == 0 {
			units = append(units, unit{[]brange{{base, g.BrickBytesOf(b.Brick)}}})
			continue
		}
		segs := brickOrder(b.Segs)
		tangled, end := false, int64(-1)
		for _, s := range segs {
			tangled = tangled || s.BrickOff < end
			end = max(end, s.BrickOff+s.Len)
		}
		switch {
		case tangled && write:
			for _, s := range segs {
				units = append(units, unit{[]brange{{base + s.BrickOff, s.Len}}})
			}
		case tangled:
			units = append(units, unit{[]brange{{base + segs[0].BrickOff, end - segs[0].BrickOff}}})
		default:
			var u unit
			for _, s := range segs {
				u.pieces = appendRange(u.pieces, brange{base + s.BrickOff, s.Len})
			}
			units = append(units, u)
		}
	}
	sieved := false
	var end int64
	for _, u := range units {
		for _, p := range u.pieces {
			moved += p.n
		}
		switch {
		case len(u.pieces) > 1:
			parentExts++
			sieved = true
		case parentExts > 0 && !sieved && end == u.lo():
		default:
			parentExts++
			sieved = false
		}
		end = u.hi()
	}
	return units, parentExts, moved
}

// checkExchange lays out one request and checks it against reference:
// the extents and selections expand to exactly the units' pieces in
// order; an extent is tight around its pieces and carries a selection
// only when they leave a hole in it; no gap between two spans of one
// extent is wider than a hole inside one of its spans; there are never
// more extents than before joining; a write's payload and a read's
// landing list are each brick's pieces in brick order, but a read lands
// a brick it fills or tangles in one new buffer of exactly the bytes the
// brick moves, which the exchange keeps by brick; and the pieces add up
// to what travels.
func checkExchange(t *testing.T, name string, g *stripe.Geometry, bricks []stripe.BrickIO, slots []int64, fill, write bool) (x exchange, parentExts int) {
	t.Helper()
	var n int64
	for _, b := range bricks {
		for _, s := range b.Segs {
			n = max(n, s.MemOff+s.Len)
		}
	}
	buf := make([]byte, n)
	x = layExtents(g, bricks, slots, fill, buf, write, nil)
	units, parentExts, moved := reference(g, bricks, slots, fill, write)

	sels, total, err := wire.ParseSelections(x.sel, x.exts)
	if err != nil {
		t.Fatalf("%s: the selections do not parse: %v", name, err)
	}
	if x.moved != moved || total != moved {
		t.Fatalf("%s: moves %d bytes (%d by its selections), want %d", name, x.moved, total, moved)
	}
	var have, want []brange
	for i, e := range x.exts {
		var in []brange
		if len(sels) > 0 && sels[0].Extent == i {
			for _, r := range sels[0].Runs {
				for k := int64(0); k < r.Count; k++ {
					in = appendRange(in, brange{e.Off + r.Off + k*r.Stride, r.Len})
				}
			}
			sels = sels[1:]
			if len(in) < 2 || in[0].off != e.Off || in[len(in)-1].off+in[len(in)-1].n != e.Off+e.Len {
				t.Fatalf("%s: extent %+v selects %v: no hole, or not tight around its pieces", name, e, in)
			}
		} else {
			in = []brange{{e.Off, e.Len}}
		}
		for _, r := range in {
			have = appendRange(have, r)
		}
	}
	for _, u := range units {
		for _, p := range u.pieces {
			want = appendRange(want, p)
		}
	}
	if !slices.Equal(have, want) {
		t.Fatalf("%s: the extents move %v, want %v", name, have, want)
	}
	if len(x.exts) > parentExts {
		t.Fatalf("%s: %d extents, more than the %d before joining", name, len(x.exts), parentExts)
	}

	// The spans of an extent are the next ones in order that fit in it,
	// each after the one before.
	ui := 0
	for _, e := range x.exts {
		var widest int64
		first := ui
		for ; ui < len(units) && units[ui].hi() <= e.Off+e.Len; ui++ {
			if ui > first && units[ui].lo() < units[ui-1].hi() {
				break
			}
			widest = max(widest, units[ui].hole())
		}
		for k := first + 1; k < ui; k++ {
			if gap := units[k].lo() - units[k-1].hi(); gap > widest {
				t.Fatalf("%s: extent %+v sweeps a %d-byte gap between spans, its widest hole inside a span is %d", name, e, gap, widest)
			}
		}
	}
	if ui != len(units) {
		t.Fatalf("%s: %d spans fit in no extent", name, len(units)-ui)
	}

	var landed, owned int64
	k := 0
	for bi, b := range bricks {
		var lo, hi int64
		tangled := false
		for i, s := range brickOrder(b.Segs) {
			if i == 0 {
				lo = s.BrickOff
			}
			tangled = tangled || i > 0 && s.BrickOff < hi
			hi = max(hi, s.BrickOff+s.Len)
		}
		var own []byte
		if bi < len(x.own) {
			own = x.own[bi]
		}
		n := int64(-1) // the bytes of the brick's own buffer; -1 is none
		switch {
		case write:
		case fill || len(b.Segs) == 0:
			n = g.BrickBytesOf(b.Brick)
		case tangled:
			n = hi - lo
		}
		if n < 0 {
			if own != nil {
				t.Fatalf("%s: brick %d lands in a buffer of its own, want the caller's pieces", name, b.Brick)
			}
			for _, s := range brickOrder(b.Segs) {
				if k >= len(x.segs) || int64(cap(buf)-cap(x.segs[k])) != s.MemOff || int64(len(x.segs[k])) != s.Len {
					t.Fatalf("%s: piece %d is not the brick-ordered segment %+v", name, k, s)
				}
				landed += s.Len
				k++
			}
			continue
		}
		if int64(len(own)) != n || k >= len(x.segs) || len(x.segs[k]) != len(own) || &x.segs[k][0] != &own[0] {
			t.Fatalf("%s: brick %d lands in %d bytes of its own (piece %d), want a new buffer of %d", name, b.Brick, len(own), k, n)
		}
		landed += n
		owned++
		k++
	}
	if k != len(x.segs) || landed != moved || owned == 0 && x.own != nil {
		t.Fatalf("%s: %d pieces of %d bytes (%d own buffers, own list %v), want %d pieces of %d", name, len(x.segs), landed, owned, x.own != nil, k, moved)
	}
	return x, parentExts
}

// TestExtentJoinRule pins what the join rule does to the request shapes
// it was made for and to the ones it must leave alone.
func TestExtentJoinRule(t *testing.T) {
	// The benchmark's column-class2 file: 512x512 float64 in 32 KiB
	// (eight-row) bricks. A 64-column block is eight 512-byte pieces 4 KiB
	// apart in every brick; server 0 of four holds bricks 0, 4, ..., 60.
	column := &stripe.Geometry{Level: stripe.LevelLinear, ElemSize: 8, Dims: []int64{512, 512}, BrickBytes: 32 << 10}
	plan, err := column.PlanSection(stripe.NewSection([]int64{0, 64}, []int64{512, 64}))
	if err != nil {
		t.Fatal(err)
	}
	var onServer0 []stripe.BrickIO
	var consecutive, everyOther []int64
	for _, b := range plan {
		if b.Brick%4 == 0 {
			onServer0 = append(onServer0, b)
			consecutive = append(consecutive, int64(b.Brick/4))
			everyOther = append(everyOther, int64(b.Brick/2))
		}
	}
	// A byte file in 1 KiB bricks.
	bytesFile := &stripe.Geometry{Level: stripe.LevelLinear, ElemSize: 1, Dims: []int64{8 << 10}, BrickBytes: 1 << 10}
	planOf := func(exts ...stripe.Extent) []stripe.BrickIO {
		p, err := bytesFile.PlanExtents(exts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Pieces sharing bytes: a tangled view of one brick.
	tangled := []stripe.BrickIO{{Brick: 0, Segs: []stripe.Segment{
		{BrickOff: 100, MemOff: 0, Len: 8}, {BrickOff: 104, MemOff: 8, Len: 8}, {BrickOff: 140, MemOff: 16, Len: 4},
	}}}
	// Two 640 MiB bricks in neighbouring slots, each wanting a piece at
	// either end of an s-byte span: the gap between the spans is narrower
	// than their holes, and joined they are one extent of 640 MiB + s.
	huge := &stripe.Geometry{Level: stripe.LevelLinear, ElemSize: 1, Dims: []int64{2 * 640 << 20}, BrickBytes: 640 << 20}
	ends := func(s int64) []stripe.BrickIO {
		var bs []stripe.BrickIO
		for b := 0; b < 2; b++ {
			bs = append(bs, stripe.BrickIO{Brick: b, Segs: []stripe.Segment{
				{BrickOff: 0, MemOff: int64(16 * b), Len: 8}, {BrickOff: s - 8, MemOff: int64(16*b + 8), Len: 8},
			}})
		}
		return bs
	}

	const sweep = 15*(32<<10) + 7*4096 + 512 // slot 0's first piece to slot 15's last
	for _, tc := range []struct {
		name        string
		g           *stripe.Geometry
		bricks      []stripe.BrickIO
		slots       []int64
		fill, write bool
		want        []wire.Extent
		sels        int // selections the extents carry
	}{
		{"column read, consecutive slots join", column, onServer0, consecutive, false, false,
			[]wire.Extent{{Off: 512, Len: sweep}}, 1},
		{"column write, consecutive slots join", column, onServer0, consecutive, false, true,
			[]wire.Extent{{Off: 512, Len: sweep}}, 1},
		{"column read, every other slot stays apart", column, onServer0, everyOther, false, false, nil, 16},
		{"gap wider than every hole stays apart", bytesFile,
			planOf(stripe.Extent{Off: 0, Len: 8}, stripe.Extent{Off: 16, Len: 8}, stripe.Extent{Off: 1024, Len: 8}, stripe.Extent{Off: 1040, Len: 8}),
			[]int64{0, 1}, false, false,
			[]wire.Extent{{Off: 0, Len: 24}, {Off: 1024, Len: 24}}, 2},
		{"exact adjacency coalesces", bytesFile, planOf(stripe.Extent{Off: 512, Len: 7 << 10}),
			[]int64{0, 1, 2, 3, 4, 5, 6, 7}, false, false,
			[]wire.Extent{{Off: 512, Len: 7 << 10}}, 0},
		{"cache fill moves whole bricks", column, onServer0, consecutive, true, false,
			[]wire.Extent{{Off: 0, Len: 16 * 32 << 10}}, 0},
		{"tangled write goes one extent per piece", bytesFile, tangled, []int64{0}, false, true,
			[]wire.Extent{{Off: 100, Len: 8}, {Off: 104, Len: 8}, {Off: 140, Len: 4}}, 0},
		{"tangled read moves its span", bytesFile, tangled, []int64{0}, false, false,
			[]wire.Extent{{Off: 100, Len: 44}}, 0},
		{"a join up to MaxMessage joins", huge, ends(384 << 20), []int64{0, 1}, false, false,
			[]wire.Extent{{Off: 0, Len: wire.MaxMessage}}, 1},
		{"a join past MaxMessage stays apart", huge, ends(384<<20 + 1), []int64{0, 1}, false, false,
			[]wire.Extent{{Off: 0, Len: 384<<20 + 1}, {Off: 640 << 20, Len: 384<<20 + 1}}, 2},
		{"a write's join past MaxMessage stays apart", huge, ends(384<<20 + 1), []int64{0, 1}, false, true,
			[]wire.Extent{{Off: 0, Len: 384<<20 + 1}, {Off: 640 << 20, Len: 384<<20 + 1}}, 2},
	} {
		x, _ := checkExchange(t, tc.name, tc.g, tc.bricks, tc.slots, tc.fill, tc.write)
		if tc.want != nil && !slices.Equal(x.exts, tc.want) {
			t.Errorf("%s: extents %+v, want %+v", tc.name, x.exts, tc.want)
		}
		if tc.want == nil && len(x.exts) != len(tc.bricks) {
			t.Errorf("%s: %d extents, want one per brick (%d)", tc.name, len(x.exts), len(tc.bricks))
		}
		sels, _, _ := wire.ParseSelections(x.sel, x.exts)
		if len(sels) != tc.sels {
			t.Errorf("%s: %d selections, want %d", tc.name, len(sels), tc.sels)
		}
	}
}

// goldenPlan is the part of a line of the stripe package's
// testdata/parent/plans.golden a request is laid out from.
type goldenPlan struct {
	Name    string       `json:"name"`
	Level   stripe.Level `json:"level"`
	Elem    int64        `json:"elem"`
	Dims    []int64      `json:"dims"`
	Brick   int64        `json:"brick"`
	Tile    []int64      `json:"tile"`
	Pattern []int        `json:"pattern"`
	Grid    []int64      `json:"grid"`
	Plan    [][]int64    `json:"plan"`
}

// TestExtentJoinCorpus lays out every plan of the planner's golden
// corpus as a read, a cache-filling read and a write, split into
// requests by round-robin slot maps over one to four servers, and
// checks each request as checkExchange does. The benchmark's bulk,
// small-I/O and metadata ops carry no selection and keep their extent
// counts exactly.
func TestExtentJoinCorpus(t *testing.T) {
	f, err := os.Open("../stripe/testdata/parent/plans.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	lines, joined := 0, 0
	for sc.Scan() {
		var c goldenPlan
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatal(err)
		}
		lines++
		g := &stripe.Geometry{Level: c.Level, ElemSize: c.Elem, Dims: c.Dims, BrickBytes: c.Brick, Tile: c.Tile, Grid: c.Grid}
		for _, p := range c.Pattern {
			g.Pattern = append(g.Pattern, stripe.Dist(p))
		}
		var plan []stripe.BrickIO
		for _, row := range c.Plan {
			b := stripe.BrickIO{Brick: int(row[0])}
			for i := 1; i < len(row); i += 3 {
				b.Segs = append(b.Segs, stripe.Segment{BrickOff: row[i], MemOff: row[i+1], Len: row[i+2]})
			}
			plan = append(plan, b)
		}
		bench := c.Name == "bulk-native" || c.Name == "smallio-native" || c.Name == "meta-native"
		for servers := 1; servers <= 4; servers++ {
			for s := 0; s < servers; s++ {
				var bricks []stripe.BrickIO
				var slots []int64
				for _, b := range plan {
					if b.Brick%servers == s {
						bricks = append(bricks, b)
						slots = append(slots, int64(b.Brick/servers))
					}
				}
				if len(bricks) == 0 {
					continue
				}
				for _, mode := range []struct{ fill, write bool }{{false, false}, {true, false}, {false, true}} {
					x, parent := checkExchange(t, c.Name, g, bricks, slots, mode.fill, mode.write)
					if len(x.exts) < parent {
						joined++
					}
					if bench && (len(x.sel) > 0 || len(x.exts) != parent) {
						t.Errorf("%s on %d servers (fill %v, write %v): %d extents, %d selection bytes; want %d and none",
							c.Name, servers, mode.fill, mode.write, len(x.exts), len(x.sel), parent)
					}
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < 1900 || joined == 0 {
		t.Fatalf("%d golden plans, %d requests joined: want the whole file, and some joins", lines, joined)
	}
	t.Logf("%d plans; %d requests travel as fewer extents than before joining", lines, joined)
}
