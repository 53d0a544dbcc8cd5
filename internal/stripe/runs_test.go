package stripe

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// piece is one contiguous range of a brick.
type piece struct{ off, n int64 }

// mergedPieces returns a brick access's segments, given in brick order,
// with adjacent ones merged, relative to the lowest offset, and whether
// any two overlap.
func mergedPieces(sorted []Segment) (out []piece, lo, hi int64, overlap bool) {
	lo = sorted[0].BrickOff
	for _, s := range sorted {
		hi = max(hi, s.BrickOff+s.Len)
		off := s.BrickOff - lo
		if k := len(out); k > 0 {
			switch end := out[k-1].off + out[k-1].n; {
			case off < end:
				overlap = true
			case off == end:
				out[k-1].n += s.Len
				continue
			}
		}
		out = append(out, piece{off, s.Len})
	}
	return out, lo, hi, overlap
}

// checkRuns returns how many runs Runs folds one brick access into and
// what is wrong with them, or "".
func checkRuns(b *BrickIO) (int, string) {
	sorted := append([]Segment(nil), b.Segs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].BrickOff < sorted[j].BrickOff })
	want, lo, hi, overlap := mergedPieces(sorted)
	runs, tangled := Runs(sorted, lo, hi)
	if tangled != overlap {
		return len(runs), "overlap misreported"
	}
	if overlap || len(want) == 1 {
		// No selection: overlapping pieces have no strided form, and
		// one merged piece is the range [lo, hi) itself.
		if runs != nil {
			return len(runs), "runs for a range that has no selection"
		}
		return 0, ""
	}
	var got []piece
	end := int64(0)
	for _, r := range runs {
		// The rules the wire format holds a selection to.
		if r.Len < 1 || r.Count < 1 || r.Stride < r.Len || r.Off < end {
			return len(runs), "malformed, descending or overlapping run"
		}
		for i := int64(0); i < r.Count; i++ {
			got = append(got, piece{r.Off + i*r.Stride, r.Len})
		}
		end = r.Off + (r.Count-1)*r.Stride + r.Len
	}
	if end != hi-lo {
		return len(runs), "runs do not end with the range"
	}
	if len(got) != len(want) {
		return len(runs), "expansion has a different number of pieces"
	}
	for i := range got {
		if got[i] != want[i] {
			return len(runs), "expansion differs from the merged segments"
		}
	}
	return len(runs), ""
}

// Property: for every brick of a random section's plan (files of one to
// four dimensions, all three levels), expanding Runs reproduces the
// brick-ordered, adjacency-merged segments exactly, and a range that is
// wholly wanted yields none. A 2-D section is at most one run per brick
// on the tiled levels and on a linear file whose bricks hold whole rows.
func TestQuickRunsExpandToSegments(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGeometryND(r, 1+r.Intn(4))
		rowBytes := g.Dims[len(g.Dims)-1] * g.ElemSize
		if g.Level == LevelLinear && r.Intn(2) == 0 {
			g.BrickBytes = rowBytes * int64(1+r.Intn(3))
		}
		oneRun := len(g.Dims) == 2 && (g.Level != LevelLinear || g.BrickBytes%rowBytes == 0)
		sec := randomSection(r, g.Dims)
		plan, err := g.PlanSection(sec)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i := range plan {
			n, msg := checkRuns(&plan[i])
			if msg == "" && oneRun && n > 1 {
				msg = "more than one run for a 2-D section"
			}
			if msg != "" {
				t.Logf("seed %d: %v %v tile=%v brick=%d sec=%v brick %d: %d runs: %s", seed, g.Level, g.Dims, g.Tile, g.BrickBytes, sec, plan[i].Brick, n, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the same for random extent lists of a linear file — pieces
// in any order, of any length, adjacent, apart or overlapping.
func TestQuickRunsOfExtentLists(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := &Geometry{Level: LevelLinear, ElemSize: 1, Dims: []int64{200 + int64(r.Intn(800))}, BrickBytes: 16 + int64(r.Intn(200))}
		exts := make([]Extent, 1+r.Intn(12))
		for i := range exts {
			exts[i].Off = int64(r.Intn(int(g.Dims[0])))
			exts[i].Len = 1 + int64(r.Intn(int(min(g.Dims[0]-exts[i].Off, 40))))
		}
		if r.Intn(2) == 0 {
			// A constant stride, so that runs fold.
			for i := range exts {
				exts[i] = Extent{Off: int64(i) * 16, Len: 5}
			}
		}
		plan, err := g.PlanExtents(exts)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i := range plan {
			if _, msg := checkRuns(&plan[i]); msg != "" {
				t.Logf("seed %d: brick=%d exts=%v brick %d: %s", seed, g.BrickBytes, exts, plan[i].Brick, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRunsFolding pins the folding rules on hand-built pieces.
func TestRunsFolding(t *testing.T) {
	seg := func(off, n int64) Segment { return Segment{BrickOff: off, Len: n} }
	for _, tc := range []struct {
		name    string
		segs    []Segment
		lo, hi  int64
		want    []Run
		overlap bool
	}{
		{"column of a row-major brick", []Segment{seg(64, 8), seg(128, 8), seg(192, 8), seg(256, 8)}, 64, 264,
			[]Run{{Off: 0, Len: 8, Stride: 64, Count: 4}}, false},
		{"adjacent pieces merge before folding", []Segment{seg(0, 8), seg(100, 4), seg(104, 4), seg(200, 8)}, 0, 208,
			[]Run{{Off: 0, Len: 8, Stride: 100, Count: 3}}, false},
		{"a ragged head and tail are their own runs", []Segment{seg(10, 3), seg(20, 8), seg(40, 8), seg(60, 5)}, 10, 65,
			[]Run{{Off: 0, Len: 3, Stride: 3, Count: 1}, {Off: 10, Len: 8, Stride: 20, Count: 2}, {Off: 50, Len: 5, Stride: 5, Count: 1}}, false},
		{"a broken stride starts a new run", []Segment{seg(0, 4), seg(10, 4), seg(20, 4), seg(35, 4)}, 0, 39,
			[]Run{{Off: 0, Len: 4, Stride: 10, Count: 3}, {Off: 35, Len: 4, Stride: 4, Count: 1}}, false},
		{"a filled range selects nothing", []Segment{seg(32, 16), seg(48, 16)}, 32, 64, nil, false},
		{"one piece inside a wider range is selected", []Segment{seg(32, 16)}, 0, 64,
			[]Run{{Off: 32, Len: 16, Stride: 16, Count: 1}}, false},
		{"overlapping pieces have no selection, and say so", []Segment{seg(0, 10), seg(5, 10), seg(40, 4)}, 0, 44, nil, true},
		{"a piece repeated overlaps itself", []Segment{seg(8, 4), seg(8, 4)}, 8, 12, nil, true},
		{"no pieces select nothing", nil, 0, 64, nil, false},
	} {
		got, overlap := Runs(tc.segs, tc.lo, tc.hi)
		if overlap != tc.overlap {
			t.Errorf("%s: overlap reported %v, want %v", tc.name, overlap, tc.overlap)
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: runs %+v, want %+v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: runs %+v, want %+v", tc.name, got, tc.want)
				break
			}
		}
	}
}
