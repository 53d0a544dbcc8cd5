package stripe

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dpfs/internal/datatype"
)

// goldenCase is one line of testdata/parent/plans.golden: a geometry, a
// section or a list of byte ranges, and the plan the parent commit's
// planners made of it.
type goldenCase struct {
	Name    string     `json:"name"`
	Level   Level      `json:"level"`
	Elem    int64      `json:"elem"`
	Dims    []int64    `json:"dims"`
	Brick   int64      `json:"brick,omitempty"`
	Tile    []int64    `json:"tile,omitempty"`
	Pattern []int      `json:"pattern,omitempty"`
	Grid    []int64    `json:"grid,omitempty"`
	Start   []int64    `json:"start,omitempty"`
	Count   []int64    `json:"count,omitempty"`
	Exts    [][2]int64 `json:"exts,omitempty"`
	Plan    [][]int64  `json:"plan"`
}

func (c *goldenCase) geometry() *Geometry {
	g := &Geometry{Level: c.Level, ElemSize: c.Elem, Dims: c.Dims, BrickBytes: c.Brick, Tile: c.Tile, Grid: c.Grid}
	for _, p := range c.Pattern {
		g.Pattern = append(g.Pattern, Dist(p))
	}
	return g
}

func (c *goldenCase) extents() []Extent {
	var exts []Extent
	for _, e := range c.Exts {
		exts = append(exts, Extent{Off: e[0], Len: e[1]})
	}
	return exts
}

func (c *goldenCase) want() []BrickIO {
	var plan []BrickIO
	for _, row := range c.Plan {
		b := BrickIO{Brick: int(row[0])}
		for i := 1; i < len(row); i += 3 {
			b.Segs = append(b.Segs, Segment{BrickOff: row[i], MemOff: row[i+1], Len: row[i+2]})
		}
		plan = append(plan, b)
	}
	return plan
}

func loadGolden(tb testing.TB) []goldenCase {
	tb.Helper()
	f, err := os.Open("testdata/parent/plans.golden")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var cases []goldenCase
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var c goldenCase
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			tb.Fatal(err)
		}
		cases = append(cases, c)
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return cases
}

func samePlan(got, want []BrickIO) bool {
	return len(got) == 0 && len(want) == 0 || reflect.DeepEqual(got, want)
}

// TestPlansMatchParent replans every input of the parent's golden file
// and wants the identical plan: the same bricks in the same order, each
// with the same segments in the same order and merged the same way. A
// section is planned twice, from the runs PlanSection lists and from the
// runs a subarray datatype over the file lists, which is how the engine's
// calls reach the planner.
func TestPlansMatchParent(t *testing.T) {
	cases := loadGolden(t)
	if len(cases) < 1900 {
		t.Fatalf("%d golden plans, want the whole file", len(cases))
	}
	for _, c := range cases {
		g, want := c.geometry(), c.want()
		if c.Start == nil {
			got, err := g.PlanExtents(c.extents())
			if err != nil || !samePlan(got, want) {
				t.Fatalf("%s %v: PlanExtents = %v, %v; the parent planned %v", c.Name, c.Exts, got, err, want)
			}
			continue
		}
		sec := Section{Start: c.Start, Count: c.Count}
		got, err := g.PlanSection(sec)
		if err != nil || !samePlan(got, want) {
			t.Fatalf("%s %v: PlanSection = %v, %v; the parent planned %v", c.Name, sec, got, err, want)
		}
		if got, err := g.Plan(subarrayRuns(g, sec), nil); err != nil || !samePlan(got, want) {
			t.Fatalf("%s %v: Plan of the subarray's runs = %v, %v; the parent planned %v", c.Name, sec, got, err, want)
		}
	}
}

// subarrayRuns lists the file runs of section sec the way the engine's
// calls do, through a subarray datatype over the file.
func subarrayRuns(g *Geometry, sec Section) []Extent {
	var runs []Extent
	for _, s := range datatype.Segments(datatype.Subarray{ElemSize: g.ElemSize, Dims: g.Dims, Start: sec.Start, Count: sec.Count}) {
		runs = append(runs, Extent{Off: s.Off, Len: s.Len})
	}
	return runs
}

// fuzzMaxBytes bounds the bytes FuzzPlan checks one by one.
const fuzzMaxBytes = 1 << 14

// decodePlanInput reads a FuzzPlan input: a geometry of any level, its
// fields taken from single bytes (so zero extents, bad levels and bad
// distributions all occur), then a count of file runs, the file runs and
// the memory runs, each an (offset, length) pair of big-endian int16s. No
// memory runs means the packed buffer.
func decodePlanInput(data []byte) (g *Geometry, file, mem []Extent) {
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(b)
	}
	g = &Geometry{Level: Level(next() % 4), ElemSize: next() % 9}
	g.Dims = make([]int64, next()%4)
	for d := range g.Dims {
		g.Dims[d] = next() % 17
	}
	switch g.Level {
	case LevelLinear:
		g.BrickBytes = next()<<8 | next()
	case LevelMultidim:
		g.Tile = make([]int64, len(g.Dims))
		for d := range g.Tile {
			g.Tile[d] = next() % 17
		}
	case LevelArray:
		g.Pattern = make([]Dist, len(g.Dims))
		g.Grid = make([]int64, len(g.Dims))
		for d := range g.Dims {
			g.Pattern[d], g.Grid[d] = Dist(next()%3), next()%17
		}
	}
	runs := next()
	pair := func() Extent {
		off := int64(int16(binary.BigEndian.Uint16(data)))
		n := int64(int16(binary.BigEndian.Uint16(data[2:])))
		data = data[4:]
		return Extent{Off: off, Len: n}
	}
	for ; runs > 0 && len(data) >= 4; runs-- {
		file = append(file, pair())
	}
	for len(data) >= 4 {
		mem = append(mem, pair())
	}
	return g, file, mem
}

// encodePlanInput is decodePlanInput's inverse, for seeds; ok is false
// when the input does not fit the encoding.
func encodePlanInput(g *Geometry, file, mem []Extent) (data []byte, ok bool) {
	small := func(xs ...int64) bool {
		for _, x := range xs {
			if x < 0 || x > 16 {
				return false
			}
		}
		return true
	}
	if !small(g.Dims...) || !small(g.Tile...) || !small(g.Grid...) || g.ElemSize > 8 ||
		g.BrickBytes > 0xffff || len(g.Dims) > 3 || len(file) > 255 {
		return nil, false
	}
	data = append(data, byte(g.Level), byte(g.ElemSize), byte(len(g.Dims)))
	for _, d := range g.Dims {
		data = append(data, byte(d))
	}
	switch g.Level {
	case LevelLinear:
		data = binary.BigEndian.AppendUint16(data, uint16(g.BrickBytes))
	case LevelMultidim:
		for _, t := range g.Tile {
			data = append(data, byte(t))
		}
	case LevelArray:
		for d := range g.Dims {
			data = append(data, byte(g.Pattern[d]), byte(g.Grid[d]))
		}
	}
	data = append(data, byte(len(file)))
	for _, e := range append(append([]Extent(nil), file...), mem...) {
		if e.Off != int64(int16(e.Off)) || e.Len != int64(int16(e.Len)) {
			return nil, false
		}
		data = binary.BigEndian.AppendUint16(data, uint16(e.Off))
		data = binary.BigEndian.AppendUint16(data, uint16(e.Len))
	}
	return data, true
}

// whereIs is the reference for where a valid geometry keeps logical byte
// off: the brick and the offset in it, worked out from the element's
// coordinates the way the paper defines each level.
func whereIs(g *Geometry, off int64) (int, int64) {
	if g.Level == LevelLinear {
		return int(off / g.BrickBytes), off % g.BrickBytes
	}
	e, within := off/g.ElemSize, off%g.ElemSize
	coord := make([]int64, len(g.Dims))
	for d := len(g.Dims) - 1; d >= 0; d-- {
		coord[d], e = e%g.Dims[d], e/g.Dims[d]
	}
	// A tile is the hinted shape, stored whole even at the edges; a chunk
	// is HPF's block of ceil(n/p) elements, stored clipped.
	id := int64(0)
	rel, shape := make([]int64, len(g.Dims)), make([]int64, len(g.Dims))
	for d := range g.Dims {
		blk, count := g.Dims[d], int64(1)
		switch {
		case g.Level == LevelMultidim:
			blk, count = g.Tile[d], ceilDiv(g.Dims[d], g.Tile[d])
		case g.Pattern[d] == DistBlock:
			blk, count = ceilDiv(g.Dims[d], g.Grid[d]), g.Grid[d]
		}
		id = id*count + coord[d]/blk
		rel[d] = coord[d] % blk
		shape[d] = blk
		if g.Level == LevelArray {
			shape[d] = min(blk, g.Dims[d]-coord[d]/blk*blk)
		}
	}
	return int(id), rowMajorOffset(rel, shape)*g.ElemSize + within
}

// FuzzPlan feeds the planner arbitrary geometries of every level and
// arbitrary file and memory runs. It must never panic; it must accept
// every well-formed input, and plan it so that every requested byte,
// paired with its memory byte, is moved exactly once, inside its brick,
// in a plan ordered and merged the way plans are, each brick's segments
// capped at their length.
func FuzzPlan(f *testing.F) {
	for _, c := range loadGolden(f) {
		g := c.geometry()
		file := c.extents()
		if c.Start != nil {
			file = subarrayRuns(g, Section{Start: c.Start, Count: c.Count})
		}
		if data, ok := encodePlanInput(g, file, nil); ok {
			f.Add(data)
		}
	}
	md := &Geometry{Level: LevelMultidim, ElemSize: 2, Dims: []int64{6, 7}, Tile: []int64{4, 3}}
	for _, mem := range [][]Extent{{{Off: 40, Len: 10}, {Off: 0, Len: 14}}, {{Off: 3, Len: 24}}, {{Off: 0, Len: 30}}} {
		data, _ := encodePlanInput(md, []Extent{{Off: 10, Len: 20}, {Off: 60, Len: 4}}, mem)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, file, mem := decodePlanInput(data)
		plan, err := g.Plan(file, mem)

		valid := g.Validate() == nil
		var n, m int64
		for _, e := range file {
			valid = valid && e.Off >= 0 && e.Len >= 0 && e.Off+e.Len <= g.Size()
			n += e.Len
		}
		for _, e := range mem {
			valid = valid && e.Off >= 0 && e.Len >= 0
			m += e.Len
		}
		if mem == nil {
			mem, m = []Extent{{Len: n}}, n
		}
		valid = valid && n == m
		if err != nil {
			if valid {
				t.Fatalf("%+v file %v mem %v: well-formed input refused: %v", g, file, mem, err)
			}
			return
		}
		if !valid {
			t.Fatalf("%+v file %v mem %v: malformed input planned", g, file, mem)
		}
		if n > fuzzMaxBytes {
			return
		}

		// Every (brick, brick byte, memory byte) the runs ask for, and
		// every one the plan moves, sorted: the two lists must agree.
		type move [3]int64
		var want, got []move
		j, mo := 0, int64(0)
		for _, e := range file {
			for i := int64(0); i < e.Len; i++ {
				for mo == mem[j].Len {
					j, mo = j+1, 0
				}
				b, boff := whereIs(g, e.Off+i)
				want = append(want, move{int64(b), boff, mem[j].Off + mo})
				mo++
			}
		}
		for k, b := range plan {
			if b.Brick < 0 || b.Brick >= g.NumBricks() || k > 0 && plan[k-1].Brick >= b.Brick {
				t.Fatalf("%+v file %v mem %v: brick %d out of range or order", g, file, mem, b.Brick)
			}
			if cap(b.Segs) != len(b.Segs) {
				t.Fatalf("%+v file %v mem %v: brick %d's segments have room for %d more: an append would write past them", g, file, mem, b.Brick, cap(b.Segs)-len(b.Segs))
			}
			for i, s := range b.Segs {
				if s.Len <= 0 || s.BrickOff < 0 || s.BrickOff+s.Len > g.BrickBytesOf(b.Brick) {
					t.Fatalf("%+v file %v mem %v: segment %+v outside brick %d", g, file, mem, s, b.Brick)
				}
				if i > 0 {
					p := b.Segs[i-1]
					if s.MemOff < p.MemOff || s.MemOff == p.MemOff+p.Len && s.BrickOff == p.BrickOff+p.Len {
						t.Fatalf("%+v file %v mem %v: brick %d segments out of order or unmerged: %v", g, file, mem, b.Brick, b.Segs)
					}
				}
				for i := int64(0); i < s.Len; i++ {
					got = append(got, move{int64(b.Brick), s.BrickOff + i, s.MemOff + i})
				}
			}
		}
		byMove := func(a, b move) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]), cmp.Compare(a[2], b[2]))
		}
		slices.SortFunc(want, byMove)
		slices.SortFunc(got, byMove)
		if !slices.Equal(got, want) {
			t.Fatalf("%+v file %v mem %v: the plan moves other bytes than the runs ask for", g, file, mem)
		}
	})
}

// TestPlanAllocs: planning the benchmark's accesses through the
// engine's path (a section's subarray runs, then Plan) allocates a fixed
// number of times, however many rows or bricks the access touches. A
// column block of 4 096 rows costs what one of 512 rows costs, and the
// other three shapes stay within what the per-brick grouping took.
func TestPlanAllocs(t *testing.T) {
	allocs := func(g *Geometry, file []Extent) float64 {
		t.Helper()
		if _, err := g.Plan(file, nil); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { g.Plan(file, nil) })
	}
	column := func(rows int64) float64 {
		g := &Geometry{Level: LevelLinear, ElemSize: 8, Dims: []int64{rows, 512}, BrickBytes: 32 << 10}
		return allocs(g, subarrayRuns(g, Section{Start: []int64{0, 64}, Count: []int64{rows, 64}}))
	}
	short, tall := column(512), column(4096)
	if short != tall {
		t.Errorf("a 64-column block allocates %v times at 512 rows and %v at 4 096, want equal", short, tall)
	}
	band := &Geometry{Level: LevelMultidim, ElemSize: 8, Dims: []int64{2048, 2048}, Tile: []int64{256, 256}}
	whole := &Geometry{Level: LevelMultidim, ElemSize: 8, Dims: []int64{64, 64}, Tile: []int64{32, 32}}
	small := &Geometry{Level: LevelLinear, ElemSize: 1, Dims: []int64{8 << 20}, BrickBytes: 64 << 10}
	for _, c := range []struct {
		name string
		got  float64
		max  float64
	}{
		{"bulk-native band", allocs(band, subarrayRuns(band, Section{Start: []int64{512, 0}, Count: []int64{256, 2048}})), 79},
		{"meta-native whole file", allocs(whole, subarrayRuns(whole, FullSection(whole.Dims))), 30},
		{"4 KiB range", allocs(small, []Extent{{Off: 3 << 20, Len: 4 << 10}}), 2},
	} {
		if c.got > c.max {
			t.Errorf("%s: Plan allocates %v times, want at most %v", c.name, c.got, c.max)
		}
		t.Logf("%s: %v allocations", c.name, c.got)
	}
	t.Logf("64-column block: %v allocations at 512 rows, %v at 4 096", short, tall)

	// A brick that spans its rows whole stores them back to back, so a
	// run over them is one piece per brick, not one per row: the whole of
	// a (BLOCK, *) array of 65 536 rows of three float64s plans in a few
	// hundred bytes, not in the megabytes a piece per row would take.
	narrow := &Geometry{Level: LevelArray, ElemSize: 8, Dims: []int64{1 << 16, 3},
		Pattern: []Dist{DistBlock, DistStar}, Grid: []int64{8, 1}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plan, err := narrow.Plan([]Extent{{Off: 0, Len: narrow.Size()}}, nil)
	runtime.ReadMemStats(&after)
	if err != nil || len(plan) != 8 {
		t.Fatalf("whole (BLOCK, *) array: %d bricks, %v; want 8", len(plan), err)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 4<<10 {
		t.Errorf("whole (BLOCK, *) array of 65 536 rows: Plan allocated %d bytes, want at most 4 KiB", b)
	}
}
