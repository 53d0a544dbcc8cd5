package stripe

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomGeometry draws a small random geometry of any level, of one to
// three dimensions.
func randomGeometry(r *rand.Rand) *Geometry { return randomGeometryND(r, 1+r.Intn(3)) }

// randomGeometryND draws a small random nd-dimensional geometry.
func randomGeometryND(r *rand.Rand, nd int) *Geometry {
	dims := make([]int64, nd)
	for d := range dims {
		dims[d] = 1 + int64(r.Intn(12))
	}
	elem := []int64{1, 2, 4, 8}[r.Intn(4)]
	g := &Geometry{ElemSize: elem, Dims: dims}
	switch r.Intn(3) {
	case 0:
		g.Level = LevelLinear
		g.BrickBytes = 1 + int64(r.Intn(40))
	case 1:
		g.Level = LevelMultidim
		g.Tile = make([]int64, nd)
		for d := range g.Tile {
			g.Tile[d] = 1 + int64(r.Intn(int(dims[d])))
		}
	case 2:
		g.Level = LevelArray
		g.Pattern = make([]Dist, nd)
		g.Grid = make([]int64, nd)
		for d := range g.Pattern {
			if r.Intn(2) == 0 {
				g.Pattern[d] = DistStar
				g.Grid[d] = 1
			} else {
				g.Pattern[d] = DistBlock
				g.Grid[d] = 1 + int64(r.Intn(int(dims[d])))
			}
		}
	}
	return g
}

func randomSection(r *rand.Rand, dims []int64) Section {
	sec := Section{Start: make([]int64, len(dims)), Count: make([]int64, len(dims))}
	for d, n := range dims {
		sec.Start[d] = int64(r.Intn(int(n)))
		sec.Count[d] = 1 + int64(r.Intn(int(n-sec.Start[d])))
	}
	return sec
}

// Property: a plan's memory segments exactly tile [0, sectionBytes)
// with no overlap and no gap, and every brick segment stays within the
// brick's stored bytes.
func TestQuickPlanCoversSection(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGeometry(r)
		sec := randomSection(r, g.Dims)
		plan, err := g.PlanSection(sec)
		if err != nil {
			t.Logf("seed %d: plan error: %v", seed, err)
			return false
		}
		type span struct{ off, end int64 }
		var spans []span
		for _, bio := range plan {
			bb := g.BrickBytesOf(bio.Brick)
			for _, s := range bio.Segs {
				if s.Len <= 0 || s.BrickOff < 0 || s.BrickOff+s.Len > bb {
					t.Logf("seed %d: segment %+v escapes brick %d (%d bytes)", seed, s, bio.Brick, bb)
					return false
				}
				spans = append(spans, span{s.MemOff, s.MemOff + s.Len})
			}
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
		want := sec.Bytes(g.ElemSize)
		pos := int64(0)
		for _, sp := range spans {
			if sp.off != pos {
				t.Logf("seed %d: %v %v sec=%v gap/overlap at %d (next span %d)", seed, g.Level, g.Dims, sec, pos, sp.off)
				return false
			}
			pos = sp.end
		}
		if pos != want {
			t.Logf("seed %d: covered %d bytes, want %d", seed, pos, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: writing a random section and reading it back through
// independently computed plans returns the identical bytes, and bytes
// outside the section are untouched.
func TestQuickSectionRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGeometry(r)
		sec := randomSection(r, g.Dims)
		st := newBrickStore(g)

		payload := make([]byte, sec.Bytes(g.ElemSize))
		r.Read(payload)
		plan, err := g.PlanSection(sec)
		if err != nil {
			return false
		}
		st.write(plan, payload)

		plan2, err := g.PlanSection(sec)
		if err != nil {
			return false
		}
		got := make([]byte, len(payload))
		st.read(plan2, got)
		for i := range got {
			if got[i] != payload[i] {
				t.Logf("seed %d: byte %d differs", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: two disjoint sections never write to the same brick byte.
func TestQuickDisjointSectionsDisjointBytes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGeometry(r)
		nd := len(g.Dims)
		// Split the array in two along a random dimension with size>1.
		d := -1
		for _, cand := range r.Perm(nd) {
			if g.Dims[cand] > 1 {
				d = cand
				break
			}
		}
		if d == -1 {
			return true
		}
		cut := 1 + int64(r.Intn(int(g.Dims[d]-1)))
		a := FullSection(g.Dims)
		a.Count[d] = cut
		b := FullSection(g.Dims)
		b.Start[d] = cut
		b.Count[d] = g.Dims[d] - cut

		occupied := make(map[[2]int64]int) // (brick, byte) -> section
		for idx, sec := range []Section{a, b} {
			plan, err := g.PlanSection(sec)
			if err != nil {
				return false
			}
			for _, bio := range plan {
				for _, s := range bio.Segs {
					for o := s.BrickOff; o < s.BrickOff+s.Len; o++ {
						key := [2]int64{int64(bio.Brick), o}
						if prev, ok := occupied[key]; ok && prev != idx {
							t.Logf("seed %d: brick %d byte %d written by both sections", seed, bio.Brick, o)
							return false
						}
						occupied[key] = idx
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: greedy assignment keeps accumulated normalized cost within
// one brick of balanced — max(A) - min(A+P) stays bounded — and fast
// servers never hold fewer bricks than slow ones.
func TestQuickGreedyBalance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ns := 1 + r.Intn(8)
		nb := r.Intn(200)
		perf := make([]int, ns)
		for i := range perf {
			perf[i] = 1 + r.Intn(4)
		}
		assign, err := Greedy{Perf: perf}.Assign(nb, ns)
		if err != nil {
			return false
		}
		if len(assign) != nb {
			return false
		}
		acc := make([]int64, ns)
		for _, s := range assign {
			if s < 0 || s >= ns {
				return false
			}
			acc[s] += int64(perf[s])
		}
		// The greedy invariant: when the last brick landed on server i
		// its score acc[i] (after adding P[i]) was minimal among all
		// j's scores at that moment, and scores only grow, so in the
		// final state acc[i] <= acc[j] + P[j] for every j.
		for i := range acc {
			if acc[i] == 0 {
				continue
			}
			for j := range acc {
				if acc[i] > acc[j]+int64(perf[j]) {
					t.Logf("seed %d: perf=%v acc=%v violates greedy invariant (%d vs %d)", seed, perf, acc, i, j)
					return false
				}
			}
		}
		// Faster servers get at least as many bricks.
		counts := make([]int, ns)
		for _, s := range assign {
			counts[s]++
		}
		for i := range perf {
			for j := range perf {
				if perf[i] < perf[j] && counts[i] < counts[j] {
					t.Logf("seed %d: perf=%v counts=%v: faster server %d has fewer bricks than %d", seed, perf, counts, i, j)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Combine preserves exactly the brick set and never repeats a
// server; PerBrick preserves order; Stagger is a permutation.
func TestQuickCombinePreservesBricks(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGeometry(r)
		sec := randomSection(r, g.Dims)
		plan, err := g.PlanSection(sec)
		if err != nil {
			return false
		}
		ns := 1 + r.Intn(6)
		assign, err := RoundRobin{}.Assign(g.NumBricks(), ns)
		if err != nil {
			return false
		}

		want := map[int]bool{}
		for _, b := range plan {
			want[b.Brick] = true
		}

		comb := Combine(plan, assign)
		seenServer := map[int]bool{}
		got := map[int]bool{}
		for _, req := range comb {
			if seenServer[req.Server] {
				t.Logf("seed %d: server %d appears twice after Combine", seed, req.Server)
				return false
			}
			seenServer[req.Server] = true
			for _, b := range req.Bricks {
				if assign[b.Brick] != req.Server {
					t.Logf("seed %d: brick %d in request for wrong server", seed, b.Brick)
					return false
				}
				got[b.Brick] = true
			}
		}
		if len(got) != len(want) {
			return false
		}

		st := Stagger(comb, r.Intn(16), ns)
		if len(st) != len(comb) {
			return false
		}
		per := PerBrick(plan, assign)
		if len(per) != len(plan) {
			return false
		}
		for i, req := range per {
			if len(req.Bricks) != 1 || req.Bricks[0].Brick != plan[i].Brick {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: BrickLists and ReplicaSetFromLists are inverses for any
// placement of an unreplicated file, and its slots are dense per
// server.
func TestQuickListsInverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ns := 1 + r.Intn(8)
		nb := r.Intn(100)
		var pl Placement = RoundRobin{}
		if r.Intn(2) == 0 {
			perf := make([]int, ns)
			for i := range perf {
				perf[i] = 1 + r.Intn(3)
			}
			pl = Greedy{Perf: perf}
		}
		assign, err := pl.Assign(nb, ns)
		if err != nil {
			return false
		}
		rs, err := ReplicaSetFromLists(rank0(BrickLists(assign, ns)), nb, 1)
		if err != nil {
			return false
		}
		for i, back := range rs.Primary() {
			if assign[i] != back {
				return false
			}
		}
		// Per server, local indices must be 0,1,2,... in brick order.
		next := make([]int64, ns)
		for b, s := range assign {
			if rs.Local[b][0] != next[s] {
				return false
			}
			next[s]++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
