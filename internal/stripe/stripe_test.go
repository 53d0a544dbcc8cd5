package stripe

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// brickStore is an in-memory brick storage used to validate plans: it
// applies write plans from a packed buffer and serves read plans into a
// packed buffer, byte-for-byte like the real servers do.
type brickStore struct {
	g      *Geometry
	bricks map[int][]byte
}

func newBrickStore(g *Geometry) *brickStore {
	return &brickStore{g: g, bricks: make(map[int][]byte)}
}

func (st *brickStore) brick(b int) []byte {
	buf, ok := st.bricks[b]
	if !ok {
		buf = make([]byte, st.g.BrickBytesOf(b))
		st.bricks[b] = buf
	}
	return buf
}

func (st *brickStore) write(plan []BrickIO, packed []byte) {
	for _, bio := range plan {
		buf := st.brick(bio.Brick)
		for _, s := range bio.Segs {
			copy(buf[s.BrickOff:s.BrickOff+s.Len], packed[s.MemOff:s.MemOff+s.Len])
		}
	}
}

func (st *brickStore) read(plan []BrickIO, packed []byte) {
	for _, bio := range plan {
		buf := st.brick(bio.Brick)
		for _, s := range bio.Segs {
			copy(packed[s.MemOff:s.MemOff+s.Len], buf[s.BrickOff:s.BrickOff+s.Len])
		}
	}
}

// fillPattern writes a deterministic byte pattern derived from the
// global element index, so any misplaced byte is detected.
func arrayBytes(dims []int64, elemSize int64) []byte {
	n := prod(dims) * elemSize
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + i/251 + 13)
	}
	return out
}

// extractSection copies the section out of a full row-major array
// buffer, producing the packed reference buffer.
func extractSection(full []byte, dims []int64, sec Section, elemSize int64) []byte {
	out := make([]byte, sec.Bytes(elemSize))
	nd := len(dims)
	runBytes := sec.Count[nd-1] * elemSize
	mem := int64(0)
	abs := make([]int64, nd)
	iterOuter(sec.Count, func(pos []int64) {
		for d := 0; d < nd; d++ {
			abs[d] = sec.Start[d] + pos[d]
		}
		off := rowMajorOffset(abs, dims) * elemSize
		copy(out[mem:mem+runBytes], full[off:off+runBytes])
		mem += runBytes
	})
	return out
}

// roundtripSection writes the full array through the geometry's plan,
// then reads back the given section and compares with the reference.
func roundtripSection(t *testing.T, g *Geometry, sec Section) {
	t.Helper()
	full := arrayBytes(g.Dims, g.ElemSize)
	st := newBrickStore(g)

	fullPlan, err := g.PlanSection(FullSection(g.Dims))
	if err != nil {
		t.Fatalf("PlanSection(full): %v", err)
	}
	st.write(fullPlan, full)

	plan, err := g.PlanSection(sec)
	if err != nil {
		t.Fatalf("PlanSection(%v): %v", sec, err)
	}
	got := make([]byte, sec.Bytes(g.ElemSize))
	st.read(plan, got)

	want := extractSection(full, g.Dims, sec, g.ElemSize)
	if !bytes.Equal(got, want) {
		t.Fatalf("level=%v section %v: read data mismatch", g.Level, sec)
	}
}

func TestLevelString(t *testing.T) {
	cases := map[Level]string{LevelLinear: "linear", LevelMultidim: "multidim", LevelArray: "array", Level(9): "Level(9)"}
	for l, want := range cases {
		if l.String() != want {
			t.Errorf("Level(%d).String() = %q, want %q", l, l.String(), want)
		}
	}
	for _, name := range []string{"linear", "multidim", "array"} {
		l, err := ParseLevel(name)
		if err != nil || l.String() != name {
			t.Errorf("ParseLevel(%q) = %v, %v", name, l, err)
		}
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Error("ParseLevel(bogus) should fail")
	}
}

func TestGeometryValidate(t *testing.T) {
	cases := []struct {
		name string
		g    Geometry
		ok   bool
	}{
		{"linear ok", Geometry{Level: LevelLinear, ElemSize: 1, Dims: []int64{64}, BrickBytes: 8}, true},
		{"linear no brick", Geometry{Level: LevelLinear, ElemSize: 1, Dims: []int64{64}}, false},
		{"zero elem", Geometry{Level: LevelLinear, Dims: []int64{64}, BrickBytes: 8}, false},
		{"no dims", Geometry{Level: LevelLinear, ElemSize: 1, BrickBytes: 8}, false},
		{"neg dim", Geometry{Level: LevelLinear, ElemSize: 1, Dims: []int64{-4}, BrickBytes: 8}, false},
		{"multidim ok", Geometry{Level: LevelMultidim, ElemSize: 4, Dims: []int64{8, 8}, Tile: []int64{2, 2}}, true},
		{"multidim rank", Geometry{Level: LevelMultidim, ElemSize: 4, Dims: []int64{8, 8}, Tile: []int64{2}}, false},
		{"multidim zero tile", Geometry{Level: LevelMultidim, ElemSize: 4, Dims: []int64{8, 8}, Tile: []int64{2, 0}}, false},
		{"array ok", Geometry{Level: LevelArray, ElemSize: 8, Dims: []int64{8, 8},
			Pattern: []Dist{DistBlock, DistStar}, Grid: []int64{4, 1}}, true},
		{"array bad grid", Geometry{Level: LevelArray, ElemSize: 8, Dims: []int64{8, 8},
			Pattern: []Dist{DistBlock, DistStar}, Grid: []int64{0, 1}}, false},
		{"array grid too big", Geometry{Level: LevelArray, ElemSize: 8, Dims: []int64{8, 8},
			Pattern: []Dist{DistBlock, DistStar}, Grid: []int64{16, 1}}, false},
		{"array rank", Geometry{Level: LevelArray, ElemSize: 8, Dims: []int64{8, 8},
			Pattern: []Dist{DistBlock}, Grid: []int64{4}}, false},
		{"bad level", Geometry{Level: Level(77), ElemSize: 1, Dims: []int64{4}}, false},
	}
	for _, c := range cases {
		err := c.g.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestRoundRobinFigure3 reproduces Fig. 3: a 32-brick DPFS file striped
// across four I/O devices by round-robin.
func TestRoundRobinFigure3(t *testing.T) {
	assign, err := RoundRobin{}.Assign(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	lists := BrickLists(assign, 4)
	want := [][]int{
		{0, 4, 8, 12, 16, 20, 24, 28},
		{1, 5, 9, 13, 17, 21, 25, 29},
		{2, 6, 10, 14, 18, 22, 26, 30},
		{3, 7, 11, 15, 19, 23, 27, 31},
	}
	for s := range want {
		if fmt.Sprint(lists[s]) != fmt.Sprint(want[s]) {
			t.Errorf("server %d bricklist = %v, want %v", s, lists[s], want[s])
		}
	}
}

// TestGreedyFigure9 reproduces Fig. 9 / the DPFS-FILE-DISTRIBUTION rows
// of Fig. 10: with normalized performance numbers [1,2,1,2] the greedy
// algorithm gives the fast servers (0 and 2) bricks {0,2,6,8,...} and
// {1,3,7,9,...} and the slow servers {4,10,16,22,28} and
// {5,11,17,23,29}.
func TestGreedyFigure9(t *testing.T) {
	assign, err := Greedy{Perf: []int{1, 2, 1, 2}}.Assign(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	lists := BrickLists(assign, 4)
	want := [][]int{
		{0, 2, 6, 8, 12, 14, 18, 20, 24, 26, 30},
		{4, 10, 16, 22, 28},
		{1, 3, 7, 9, 13, 15, 19, 21, 25, 27, 31},
		{5, 11, 17, 23, 29},
	}
	for s := range want {
		if fmt.Sprint(lists[s]) != fmt.Sprint(want[s]) {
			t.Errorf("server %d bricklist = %v, want %v", s, lists[s], want[s])
		}
	}
}

// TestGreedyHomogeneous: with equal performance numbers greedy must
// degrade to round-robin.
func TestGreedyHomogeneous(t *testing.T) {
	assign, err := Greedy{Perf: []int{1, 1, 1, 1}}.Assign(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	rr, _ := RoundRobin{}.Assign(64, 4)
	for b := range assign {
		if assign[b] != rr[b] {
			t.Fatalf("brick %d: greedy %d != round-robin %d", b, assign[b], rr[b])
		}
	}
}

// TestGreedyRatio: the paper's Fig. 13 setup — class 1 is 3x faster
// than class 3 — must hand the fast half about 3x the bricks.
func TestGreedyRatio(t *testing.T) {
	perf := []int{1, 1, 1, 1, 3, 3, 3, 3}
	assign, err := Greedy{Perf: perf}.Assign(960, 8)
	if err != nil {
		t.Fatal(err)
	}
	lists := BrickLists(assign, 8)
	fast, slow := len(lists[0]), len(lists[4])
	if fast != 3*slow {
		t.Errorf("fast server got %d bricks, slow %d; want exactly 3:1 for 960 bricks", fast, slow)
	}
}

func TestGreedyErrors(t *testing.T) {
	if _, err := (Greedy{Perf: []int{1}}).Assign(4, 2); err == nil {
		t.Error("mismatched perf length should fail")
	}
	if _, err := (Greedy{Perf: []int{1, 0}}).Assign(4, 2); err == nil {
		t.Error("perf < 1 should fail")
	}
	if _, err := (Greedy{Perf: nil}).Assign(4, 0); err == nil {
		t.Error("zero servers should fail")
	}
	if _, err := (RoundRobin{}).Assign(4, 0); err == nil {
		t.Error("zero servers should fail")
	}
}

// TestLinearColumnAccessFigure5 reproduces the worked example of Fig.
// 5: an 8x8 array, brick size 4 elements, striped over 4 devices.
// Processor 0 reading the first two columns must touch bricks
// 0,2,4,6,8,10,12,14 with only 2 of each brick's 4 elements useful.
func TestLinearColumnAccessFigure5(t *testing.T) {
	g := &Geometry{Level: LevelLinear, ElemSize: 1, Dims: []int64{8, 8}, BrickBytes: 4}
	plan, err := g.PlanSection(NewSection([]int64{0, 0}, []int64{8, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 8 {
		t.Fatalf("touched %d bricks, want 8", len(plan))
	}
	for i, bio := range plan {
		if bio.Brick != 2*i {
			t.Errorf("brick[%d] = %d, want %d", i, bio.Brick, 2*i)
		}
		if got := bio.Bytes(); got != 2 {
			t.Errorf("brick %d useful bytes = %d, want 2 (half the brick discarded)", bio.Brick, got)
		}
	}
	// Row access (BLOCK,*): two full rows are exactly 4 bricks, fully used.
	plan, err = g.PlanSection(NewSection([]int64{0, 0}, []int64{2, 8}))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 4 {
		t.Fatalf("(BLOCK,*) touched %d bricks, want 4", len(plan))
	}
	for _, bio := range plan {
		if bio.Bytes() != 4 {
			t.Errorf("brick %d useful bytes = %d, want full brick", bio.Brick, bio.Bytes())
		}
	}
}

// TestMultidimColumnAccessFigure6 reproduces Fig. 6: the same 8x8 array
// striped as 2x2 multidimensional bricks. Processor 0 reading the first
// two columns touches only bricks 0,4,8,12 and no extra data.
func TestMultidimColumnAccessFigure6(t *testing.T) {
	g := &Geometry{Level: LevelMultidim, ElemSize: 1, Dims: []int64{8, 8}, Tile: []int64{2, 2}}
	if n := g.NumBricks(); n != 16 {
		t.Fatalf("NumBricks = %d, want 16", n)
	}
	plan, err := g.PlanSection(NewSection([]int64{0, 0}, []int64{8, 2}))
	if err != nil {
		t.Fatal(err)
	}
	wantBricks := []int{0, 4, 8, 12}
	if len(plan) != len(wantBricks) {
		t.Fatalf("touched %d bricks, want %d", len(plan), len(wantBricks))
	}
	for i, bio := range plan {
		if bio.Brick != wantBricks[i] {
			t.Errorf("brick[%d] = %d, want %d", i, bio.Brick, wantBricks[i])
		}
		if bio.Bytes() != 4 {
			t.Errorf("brick %d useful bytes = %d, want 4 (whole brick useful)", bio.Brick, bio.Bytes())
		}
	}
}

// TestPaper64KExample verifies the quantitative claim of Sec. 3.2: for
// a 64K x 64K array with 64K-element bricks, reading one column needs
// all 65536 bricks under linear striping but only 256 bricks when
// striped as 256x256 multidimensional tiles.
func TestPaper64KExample(t *testing.T) {
	const n = 65536
	lin := &Geometry{Level: LevelLinear, ElemSize: 1, Dims: []int64{n, n}, BrickBytes: n}
	if got := lin.NumBricks(); got != n {
		t.Fatalf("linear NumBricks = %d, want %d", got, n)
	}
	col := NewSection([]int64{0, 0}, []int64{n, 1})
	plan, err := lin.PlanSection(col)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != n {
		t.Errorf("linear column access touches %d bricks, want %d", len(plan), n)
	}

	md := &Geometry{Level: LevelMultidim, ElemSize: 1, Dims: []int64{n, n}, Tile: []int64{256, 256}}
	plan, err = md.PlanSection(col)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 256 {
		t.Errorf("multidim column access touches %d bricks, want 256", len(plan))
	}
}

// TestRequestCombinationSection42 reproduces the worked example of Sec.
// 4.2: 32 bricks round-robin over 4 devices, processor 0 accessing
// bricks 0-7. The general approach needs 8 requests; combination needs
// 4 (bricks {0,4}, {1,5}, {2,6}, {3,7}), and staggering lets rank r
// start at server r.
func TestRequestCombinationSection42(t *testing.T) {
	g := &Geometry{Level: LevelLinear, ElemSize: 1, Dims: []int64{32}, BrickBytes: 1}
	assign, _ := RoundRobin{}.Assign(32, 4)
	plan, err := g.PlanExtents([]Extent{{Off: 0, Len: 8}})
	if err != nil {
		t.Fatal(err)
	}

	per := PerBrick(plan, assign)
	if len(per) != 8 {
		t.Fatalf("general approach issues %d requests, want 8", len(per))
	}

	comb := Combine(plan, assign)
	if len(comb) != 4 {
		t.Fatalf("combined approach issues %d requests, want 4", len(comb))
	}
	wantBricks := [][]int{{0, 4}, {1, 5}, {2, 6}, {3, 7}}
	for i, r := range comb {
		if r.Server != i {
			t.Errorf("request %d server = %d, want %d", i, r.Server, i)
		}
		var got []int
		for _, b := range r.Bricks {
			got = append(got, b.Brick)
		}
		if fmt.Sprint(got) != fmt.Sprint(wantBricks[i]) {
			t.Errorf("request %d bricks = %v, want %v", i, got, wantBricks[i])
		}
	}

	for rank := 0; rank < 4; rank++ {
		st := Stagger(comb, rank, 4)
		if st[0].Server != rank {
			t.Errorf("rank %d starts at server %d, want %d", rank, st[0].Server, rank)
		}
		for i := 1; i < len(st); i++ {
			if st[i].Server != (rank+i)%4 {
				t.Errorf("rank %d request %d at server %d, want %d", rank, i, st[i].Server, (rank+i)%4)
			}
		}
	}
}

func TestStaggerEdgeCases(t *testing.T) {
	if got := Stagger(nil, 3, 4); len(got) != 0 {
		t.Errorf("Stagger(nil) = %v", got)
	}
	one := []Request{{Server: 2}}
	if got := Stagger(one, 1, 4); len(got) != 1 || got[0].Server != 2 {
		t.Errorf("Stagger(single) = %v", got)
	}
	if got := Stagger(one, 1, 0); len(got) != 1 {
		t.Errorf("Stagger with 0 servers = %v", got)
	}
}

func TestWholeBricks(t *testing.T) {
	g := &Geometry{Level: LevelLinear, ElemSize: 1, Dims: []int64{10}, BrickBytes: 4}
	plan, err := g.PlanExtents([]Extent{{Off: 0, Len: 10}})
	if err != nil {
		t.Fatal(err)
	}
	sizes := WholeBricks(g, plan)
	want := []int64{4, 4, 2} // last brick is partial
	if fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Errorf("WholeBricks = %v, want %v", sizes, want)
	}
}

// rank0 writes per-server brick lists as the replica lists of an
// unreplicated file: every entry rank 0.
func rank0(lists [][]int) [][]ReplicaEntry {
	out := make([][]ReplicaEntry, len(lists))
	for s, list := range lists {
		for _, b := range list {
			out[s] = append(out[s], ReplicaEntry{Brick: b})
		}
	}
	return out
}

// An unreplicated file's row is the paper's plain brick list (Fig. 10).
func TestBrickListRoundtrip(t *testing.T) {
	in := rank0([][]int{{0, 2, 6, 8, 12}})[0]
	s := FormatReplicaList(in)
	if s != "0,2,6,8,12" {
		t.Errorf("FormatReplicaList = %q", s)
	}
	out, err := ParseReplicaList(s)
	if err != nil || fmt.Sprint(out) != fmt.Sprint(in) {
		t.Errorf("ParseReplicaList(%q) = %v, %v", s, out, err)
	}
	if out, err := ParseReplicaList(""); err != nil || len(out) != 0 {
		t.Errorf("ParseReplicaList(empty) = %v, %v", out, err)
	}
	if _, err := ParseReplicaList("1,x,3"); err == nil {
		t.Error("ParseReplicaList with junk should fail")
	}
}

func TestAssignmentFromLists(t *testing.T) {
	assign, _ := Greedy{Perf: []int{1, 2, 1, 2}}.Assign(32, 4)
	rs, err := ReplicaSetFromLists(rank0(BrickLists(assign, 4)), 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	for b, back := range rs.Primary() {
		if back != assign[b] {
			t.Fatalf("brick %d: reconstructed %d != original %d", b, back, assign[b])
		}
	}
	if _, err := ReplicaSetFromLists(rank0([][]int{{0, 1}}), 3, 1); err == nil {
		t.Error("missing brick should fail")
	}
	if _, err := ReplicaSetFromLists(rank0([][]int{{0, 0, 1}}), 2, 1); err == nil {
		t.Error("duplicate brick should fail")
	}
	if _, err := ReplicaSetFromLists(rank0([][]int{{0, 7}}), 2, 1); err == nil {
		t.Error("out-of-range brick should fail")
	}
}

func TestLocalIndex(t *testing.T) {
	assign := []int{0, 1, 0, 1, 0}
	rs, err := ReplicaSetFromLists(rank0(BrickLists(assign, 2)), len(assign), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{0}, {0}, {1}, {1}, {2}}
	if fmt.Sprint(rs.Local) != fmt.Sprint(want) {
		t.Errorf("Local = %v, want %v", rs.Local, want)
	}
}

func TestSectionValidate(t *testing.T) {
	dims := []int64{8, 8}
	cases := []struct {
		sec Section
		ok  bool
	}{
		{NewSection([]int64{0, 0}, []int64{8, 8}), true},
		{NewSection([]int64{7, 7}, []int64{1, 1}), true},
		{NewSection([]int64{0}, []int64{8}), false},
		{NewSection([]int64{-1, 0}, []int64{1, 1}), false},
		{NewSection([]int64{0, 0}, []int64{0, 1}), false},
		{NewSection([]int64{4, 0}, []int64{5, 1}), false},
	}
	for _, c := range cases {
		err := c.sec.Validate(dims)
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v) = %v, want ok=%v", c.sec, err, c.ok)
		}
	}
	if s := NewSection([]int64{1, 2}, []int64{3, 4}).String(); s != "[1:4,2:6)" {
		t.Errorf("String = %q", s)
	}
}

func TestPlanSectionErrors(t *testing.T) {
	g := &Geometry{Level: LevelLinear, ElemSize: 1, Dims: []int64{8}, BrickBytes: 2}
	if _, err := g.PlanSection(NewSection([]int64{0}, []int64{100})); err == nil {
		t.Error("oversized section should fail")
	}
	bad := &Geometry{Level: Level(9), ElemSize: 1, Dims: []int64{8}}
	if _, err := bad.PlanSection(NewSection([]int64{0}, []int64{8})); err == nil {
		t.Error("bad level should fail")
	}
	// A byte range of a tiled file plans like the section it covers.
	md := &Geometry{Level: LevelMultidim, ElemSize: 1, Dims: []int64{2, 8}, Tile: []int64{2, 3}}
	got, err := md.PlanExtents([]Extent{{6, 4}})
	if err != nil {
		t.Fatalf("PlanExtents on a multidim file: %v", err)
	}
	// Bytes 6-7 end row 0 in tile 2; bytes 8-9 start row 1 in tile 0.
	want := []BrickIO{{Brick: 0, Segs: []Segment{{BrickOff: 3, MemOff: 2, Len: 2}}}, {Brick: 2, Segs: []Segment{{BrickOff: 0, MemOff: 0, Len: 2}}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PlanExtents on a multidim file = %+v, want %+v", got, want)
	}
	if _, err := md.PlanExtents([]Extent{{12, 5}}); err == nil {
		t.Error("extent past the end of a multidim file should fail")
	}
	if _, err := g.PlanExtents([]Extent{{Off: 4, Len: 10}}); err == nil {
		t.Error("extent past EOF should fail")
	}
	if _, err := g.PlanExtents([]Extent{{Off: -1, Len: 2}}); err == nil {
		t.Error("negative extent should fail")
	}
}

func TestArrayLevelChunks(t *testing.T) {
	// Fig. 7: a 2-d array accessed by 4 processors as (BLOCK,BLOCK).
	g := &Geometry{
		Level: LevelArray, ElemSize: 8, Dims: []int64{8, 8},
		Pattern: []Dist{DistBlock, DistBlock}, Grid: []int64{2, 2},
	}
	if n := g.NumBricks(); n != 4 {
		t.Fatalf("NumBricks = %d, want 4", n)
	}
	// Each processor's chunk is exactly one brick, touched as a single
	// contiguous segment (no striping overhead for checkpoint-style
	// whole-chunk access).
	for p, start := range [][]int64{{0, 0}, {0, 4}, {4, 0}, {4, 4}} {
		plan, err := g.PlanSection(NewSection(start, []int64{4, 4}))
		if err != nil {
			t.Fatal(err)
		}
		if len(plan) != 1 {
			t.Fatalf("proc %d touches %d bricks, want 1", p, len(plan))
		}
		if plan[0].Brick != p {
			t.Errorf("proc %d got brick %d", p, plan[0].Brick)
		}
		if len(plan[0].Segs) != 1 {
			t.Errorf("proc %d chunk split into %d segments, want 1 contiguous", p, len(plan[0].Segs))
		}
		if plan[0].Bytes() != 4*4*8 {
			t.Errorf("proc %d bytes = %d", p, plan[0].Bytes())
		}
	}
}

func TestArrayLevelStarDim(t *testing.T) {
	// (*, BLOCK) with 4 processors: 4 column chunks of 8x2.
	g := &Geometry{
		Level: LevelArray, ElemSize: 1, Dims: []int64{8, 8},
		Pattern: []Dist{DistStar, DistBlock}, Grid: []int64{1, 4},
	}
	if n := g.NumBricks(); n != 4 {
		t.Fatalf("NumBricks = %d, want 4", n)
	}
	plan, err := g.PlanSection(NewSection([]int64{0, 2}, []int64{8, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 1 || plan[0].Brick != 1 {
		t.Fatalf("plan = %+v, want single brick 1", plan)
	}
	if len(plan[0].Segs) != 1 || plan[0].Bytes() != 16 {
		t.Errorf("chunk access segs=%d bytes=%d, want 1 contiguous segment of 16", len(plan[0].Segs), plan[0].Bytes())
	}
}

func TestArrayUnevenBlocks(t *testing.T) {
	// 10 rows over 3 blocks: ceil(10/3)=4, so chunks of 4,4,2 rows.
	g := &Geometry{
		Level: LevelArray, ElemSize: 1, Dims: []int64{10, 4},
		Pattern: []Dist{DistBlock, DistStar}, Grid: []int64{3, 1},
	}
	if n := g.NumBricks(); n != 3 {
		t.Fatalf("NumBricks = %d, want 3", n)
	}
	sizes := []int64{16, 16, 8}
	for b, want := range sizes {
		if got := g.BrickBytesOf(b); got != want {
			t.Errorf("BrickBytesOf(%d) = %d, want %d", b, got, want)
		}
	}
	if got := g.SlotBytes(); got != 16 {
		t.Errorf("SlotBytes = %d, want 16", got)
	}
	roundtripSection(t, g, NewSection([]int64{3, 1}, []int64{6, 2}))
}

func TestGeometrySizes(t *testing.T) {
	g := &Geometry{Level: LevelLinear, ElemSize: 8, Dims: []int64{1024, 1024}, BrickBytes: 1 << 16}
	if got := g.Size(); got != 8<<20 {
		t.Errorf("Size = %d", got)
	}
	if got := g.NumBricks(); got != 128 {
		t.Errorf("NumBricks = %d, want 128", got)
	}
	if got := g.SlotBytes(); got != 1<<16 {
		t.Errorf("SlotBytes = %d", got)
	}
	// Partial last brick.
	g2 := &Geometry{Level: LevelLinear, ElemSize: 1, Dims: []int64{10}, BrickBytes: 4}
	if got := g2.NumBricks(); got != 3 {
		t.Errorf("NumBricks = %d, want 3", got)
	}
	if got := g2.BrickBytesOf(2); got != 2 {
		t.Errorf("BrickBytesOf(2) = %d, want 2", got)
	}
	md := &Geometry{Level: LevelMultidim, ElemSize: 2, Dims: []int64{7, 5}, Tile: []int64{4, 4}}
	if got := md.NumBricks(); got != 4 {
		t.Errorf("multidim NumBricks = %d, want 4", got)
	}
	if got := md.SlotBytes(); got != 32 {
		t.Errorf("multidim SlotBytes = %d, want 32", got)
	}
	if got := md.BrickBytesOf(3); got != 32 {
		t.Errorf("multidim edge BrickBytesOf = %d, want full slot 32", got)
	}
}

// Exhaustive roundtrips over small geometries for all levels, including
// non-divisible edge bricks and 1-d and 3-d arrays.
func TestRoundtripMatrix(t *testing.T) {
	geoms := []*Geometry{
		{Level: LevelLinear, ElemSize: 1, Dims: []int64{64}, BrickBytes: 7},
		{Level: LevelLinear, ElemSize: 4, Dims: []int64{9, 7}, BrickBytes: 16},
		{Level: LevelLinear, ElemSize: 8, Dims: []int64{6, 6, 6}, BrickBytes: 64},
		{Level: LevelMultidim, ElemSize: 1, Dims: []int64{8, 8}, Tile: []int64{2, 2}},
		{Level: LevelMultidim, ElemSize: 4, Dims: []int64{9, 7}, Tile: []int64{4, 3}},
		{Level: LevelMultidim, ElemSize: 2, Dims: []int64{5, 6, 7}, Tile: []int64{2, 3, 4}},
		{Level: LevelMultidim, ElemSize: 8, Dims: []int64{16}, Tile: []int64{5}},
		{Level: LevelArray, ElemSize: 1, Dims: []int64{8, 8}, Pattern: []Dist{DistBlock, DistBlock}, Grid: []int64{2, 2}},
		{Level: LevelArray, ElemSize: 4, Dims: []int64{10, 6}, Pattern: []Dist{DistBlock, DistStar}, Grid: []int64{3, 1}},
		{Level: LevelArray, ElemSize: 8, Dims: []int64{12, 12, 4}, Pattern: []Dist{DistBlock, DistBlock, DistStar}, Grid: []int64{3, 2, 1}},
	}
	for _, g := range geoms {
		t.Run(fmt.Sprintf("%v-%v", g.Level, g.Dims), func(t *testing.T) {
			roundtripSection(t, g, FullSection(g.Dims))
			// A strictly interior section.
			sec := Section{Start: make([]int64, len(g.Dims)), Count: make([]int64, len(g.Dims))}
			for d, n := range g.Dims {
				sec.Start[d] = n / 4
				sec.Count[d] = n - n/4 - n/8
				if sec.Count[d] <= 0 {
					sec.Count[d] = 1
				}
			}
			roundtripSection(t, g, sec)
			// Single element at the far corner.
			for d, n := range g.Dims {
				sec.Start[d] = n - 1
				sec.Count[d] = 1
			}
			roundtripSection(t, g, sec)
		})
	}
}

func TestPlanExtentsRoundtrip(t *testing.T) {
	g := &Geometry{Level: LevelLinear, ElemSize: 1, Dims: []int64{100}, BrickBytes: 8}
	full := arrayBytes(g.Dims, 1)
	st := newBrickStore(g)
	plan, err := g.PlanExtents([]Extent{{0, 100}})
	if err != nil {
		t.Fatal(err)
	}
	st.write(plan, full)

	exts := []Extent{{Off: 3, Len: 10}, {Off: 50, Len: 1}, {Off: 90, Len: 10}}
	plan, err = g.PlanExtents(exts)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, e := range exts {
		want = append(want, full[e.Off:e.Off+e.Len]...)
	}
	got := make([]byte, len(want))
	st.read(plan, got)
	if !bytes.Equal(got, want) {
		t.Fatal("extent roundtrip mismatch")
	}
}

func TestChunkSection(t *testing.T) {
	g := &Geometry{
		Level: LevelArray, ElemSize: 8, Dims: []int64{32, 32},
		Pattern: []Dist{DistBlock, DistStar}, Grid: []int64{4, 1},
	}
	for b := 0; b < 4; b++ {
		sec, err := g.ChunkSection(b)
		if err != nil {
			t.Fatal(err)
		}
		if sec.Start[0] != int64(b)*8 || sec.Count[0] != 8 || sec.Count[1] != 32 {
			t.Fatalf("chunk %d section = %v", b, sec)
		}
	}
	// Uneven division: 10 rows over 3 blocks -> 4,4,2.
	g2 := &Geometry{Level: LevelArray, ElemSize: 1, Dims: []int64{10, 4},
		Pattern: []Dist{DistBlock, DistStar}, Grid: []int64{3, 1}}
	sec, err := g2.ChunkSection(2)
	if err != nil {
		t.Fatal(err)
	}
	if sec.Start[0] != 8 || sec.Count[0] != 2 {
		t.Fatalf("last chunk = %v", sec)
	}
	// Errors.
	if _, err := g.ChunkSection(-1); err == nil {
		t.Error("negative chunk accepted")
	}
	if _, err := g.ChunkSection(4); err == nil {
		t.Error("out-of-range chunk accepted")
	}
	lin := &Geometry{Level: LevelLinear, ElemSize: 1, Dims: []int64{8}, BrickBytes: 2}
	if _, err := lin.ChunkSection(0); err == nil {
		t.Error("ChunkSection on linear accepted")
	}
}
