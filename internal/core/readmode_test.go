package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dpfs/internal/core"
	"dpfs/internal/stripe"
)

// TestReadModesByteIdentical is the equivalence quickcheck of the three
// read modes: for random sections of a file of each level, an engine
// with no cache (covering spans), one with a data cache (whole-brick
// fills, then hits) and one with ExactReads must all return the bytes
// of an in-memory reference. With R=2 the preferred server is then
// killed and the same sections are read again, so every mode's extents
// are also rebuilt against the backup replicas' slots.
func TestReadModesByteIdentical(t *testing.T) {
	levels := []struct {
		name string
		elem int64
		dims []int64
		hint core.Hint
	}{
		{"linear", 2, []int64{48, 40}, core.Hint{Level: stripe.LevelLinear, BrickBytes: 200}},
		{"multidim", 4, []int64{40, 36}, core.Hint{Level: stripe.LevelMultidim, Tile: []int64{8, 8}}},
		{"array", 1, []int64{30, 30}, core.Hint{Level: stripe.LevelArray, Pattern: []stripe.Dist{stripe.DistBlock, stripe.DistBlock}, Grid: []int64{3, 2}}},
	}
	modes := []struct {
		name string
		opts core.Options
	}{
		{"span", core.Options{Combine: true, Stagger: true, ParallelDispatch: true}},
		{"cached", core.Options{Combine: true, CacheBytes: 1 << 20}},
		{"exact", core.Options{Combine: true, ExactReads: true}},
	}
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("R%d", replicas), func(t *testing.T) {
			c := startCluster(t, 3)
			ctx := ctxT(t)
			rng := rand.New(rand.NewSource(int64(7 + replicas)))
			writer := newFS(t, c, 0, core.Options{Combine: true})
			refs := make([]*refFile, len(levels))
			for li, lv := range levels {
				hint := lv.hint
				hint.Replicas = replicas
				f, err := writer.Create("/"+lv.name, lv.elem, lv.dims, hint)
				if err != nil {
					t.Fatal(err)
				}
				full := stripe.FullSection(lv.dims)
				ref := &refFile{dims: lv.dims, elem: lv.elem, data: make([]byte, full.Bytes(lv.elem))}
				rng.Read(ref.data)
				if err := f.WriteSection(ctx, full, ref.data); err != nil {
					t.Fatal(err)
				}
				f.Close()
				refs[li] = ref
			}

			files := make([][]*core.File, len(modes))
			engines := make([]*core.FS, len(modes))
			for mi, m := range modes {
				fs := newFS(t, c, mi+1, m.opts)
				engines[mi] = fs
				for _, lv := range levels {
					f, err := fs.Open("/" + lv.name)
					if err != nil {
						t.Fatal(err)
					}
					defer f.Close()
					files[mi] = append(files[mi], f)
				}
			}
			check := func(when string, iters int) {
				for iter := 0; iter < iters; iter++ {
					for li, lv := range levels {
						sec := randSection(rng, lv.dims)
						want := refs[li].extract(sec)
						for mi, m := range modes {
							got := make([]byte, len(want))
							if err := files[mi][li].ReadSection(ctx, sec, got); err != nil {
								t.Fatalf("%s: %s/%s %v: %v", when, lv.name, m.name, sec, err)
							}
							if !bytes.Equal(got, want) {
								t.Fatalf("%s: %s/%s %v: wrong bytes", when, lv.name, m.name, sec)
							}
						}
					}
				}
			}
			check("all servers up", 12)
			if replicas > 1 {
				if err := c.IOServers[0].Close(); err != nil {
					t.Fatal(err)
				}
				check("server 0 killed", 8)
				for mi, m := range modes {
					if engines[mi].Metrics().Counter(core.MetricFailovers).Value() == 0 {
						t.Errorf("%s engine never failed over: the killed server was not exercised", m.name)
					}
				}
			}
		})
	}
}
