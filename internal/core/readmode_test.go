package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dpfs/internal/core"
	"dpfs/internal/datatype"
	"dpfs/internal/stripe"
)

// TestReadModesByteIdentical is the equivalence quickcheck of the data
// paths: for random sections of a file of each level (2-D and 3-D) and
// random irregular typed views of each file's row-major byte stream,
// moved through a strided memory type, an engine with no
// cache issuing its requests one at a time, one issuing them one per
// server at once (both move brick spans narrowed by selections, so the
// servers sieve reads and scatter writes) and one with a data cache
// (whole-brick fills, then hits) must all return the bytes of an
// in-memory reference — which every round first rewrites, section by
// section and view by view, through one of the three engines in turn.
// With R=2 the preferred server is then killed and the same accesses
// are made again, so every mode's extents and selections are also
// rebuilt against the backup replicas' slots, and the writes land
// degraded on the surviving copy alone.
func TestReadModesByteIdentical(t *testing.T) {
	levels := []struct {
		name string
		elem int64
		dims []int64
		hint core.Hint
	}{
		{"linear", 2, []int64{48, 40}, core.Hint{Level: stripe.LevelLinear, BrickBytes: 200}},
		{"multidim", 4, []int64{40, 36}, core.Hint{Level: stripe.LevelMultidim, Tile: []int64{8, 8}}},
		{"multidim3", 2, []int64{12, 10, 14}, core.Hint{Level: stripe.LevelMultidim, Tile: []int64{4, 5, 6}}},
		{"array", 1, []int64{30, 30}, core.Hint{Level: stripe.LevelArray, Pattern: []stripe.Dist{stripe.DistBlock, stripe.DistBlock}, Grid: []int64{3, 2}}},
	}
	modes := []struct {
		name string
		opts core.Options
	}{
		{"sieve one at a time", core.Options{Combine: true, Stagger: true, MaxInflight: 1}},
		{"sieve overlapped", core.Options{Combine: true, Stagger: true}},
		{"cached", core.Options{Combine: true, CacheBytes: 1 << 20}},
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
			// write runs one write through the round's engine. The cached
			// engine must see every write to keep its bricks honest, so
			// when it is another's turn the cached one first writes other
			// bytes to the same place: what is read back is the turn's
			// write alone.
			const cached = 2
			write := func(turn, n int, do func(mi int, data []byte) error) []byte {
				who := []int{cached, turn}
				if turn == cached {
					who = who[1:]
				}
				var data []byte
				for _, mi := range who {
					data = make([]byte, n)
					rng.Read(data)
					if err := do(mi, data); err != nil {
						t.Fatalf("%s write: %v", modes[mi].name, err)
					}
				}
				return data
			}
			check := func(when string, iters int) {
				for iter := 0; iter < iters; iter++ {
					turn := iter % len(modes)
					for li, lv := range levels {
						sec := randSection(rng, lv.dims)
						refs[li].embedSection(sec, write(turn, int(sec.Bytes(lv.elem)), func(mi int, data []byte) error {
							return files[mi][li].WriteSection(ctx, sec, data)
						}))
					}
					// A typed write on every level, from a strided memory type, every
					// fourth time (so through each engine in turn) of a tangled view. Where
					// its pieces overlap they carry the same bytes, cut from one image of
					// the file: which of two such pieces lands last is not defined.
					for li, ref := range refs {
						wview := randIndexed(rng, int64(len(ref.data)), iter%4 == 1)
						wsegs := datatype.Segments(wview)
						mtype := stridedMem(wview.Size())
						img := write(turn, len(ref.data), func(mi int, img []byte) error {
							var packed []byte
							for _, s := range wsegs {
								packed = append(packed, img[s.Off:s.Off+s.Len]...)
							}
							return files[mi][li].WriteAtTyped(ctx, 0, wview, mtype, scatter(mtype, packed))
						})
						for _, s := range wsegs {
							copy(ref.data[s.Off:s.Off+s.Len], img[s.Off:s.Off+s.Len])
						}
					}

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
					// An irregular view on every level: pieces of any length, adjacent or
					// far apart, and every third time out of order and overlapping, which
					// no selection describes, read into a strided memory type.
					for li, lv := range levels {
						view := randIndexed(rng, int64(len(refs[li].data)), iter%3 == 2)
						var want []byte
						for _, s := range datatype.Segments(view) {
							want = append(want, refs[li].data[s.Off:s.Off+s.Len]...)
						}
						mtype := stridedMem(view.Size())
						for mi, m := range modes {
							got := make([]byte, mtype.Extent())
							if err := files[mi][li].ReadAtTyped(ctx, 0, view, mtype, got); err != nil {
								t.Fatalf("%s: typed %s/%s %+v: %v", when, lv.name, m.name, view, err)
							}
							if !bytes.Equal(gather(mtype, got), want) {
								t.Fatalf("%s: typed %s/%s %+v: wrong bytes", when, lv.name, m.name, view)
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
					if engines[mi].Metrics().Counter(core.MetricDegradedWrites).Value() == 0 {
						t.Errorf("%s engine never wrote degraded: the killed server was not exercised", m.name)
					}
				}
			}
		})
	}
}

// randIndexed builds an indexed byte view of a size-byte file: blocks of
// 1..60 bytes separated by gaps of 0 to 150, ascending unless tangled,
// which puts every third block after its successor and stretches that
// successor one byte into it.
func randIndexed(r *rand.Rand, size int64, tangled bool) datatype.Indexed {
	ix := datatype.Indexed{Elem: datatype.Bytes(1)}
	for off := int64(r.Intn(100)); ; {
		n := 1 + int64(r.Intn(60))
		if off+n > size {
			break
		}
		ix.Displs = append(ix.Displs, off)
		ix.BlockLens = append(ix.BlockLens, n)
		off += n + int64(r.Intn(4))*50
	}
	if tangled {
		for i := 0; i+1 < len(ix.Displs); i += 3 {
			ix.Displs[i], ix.Displs[i+1] = ix.Displs[i+1], ix.Displs[i]
			ix.BlockLens[i], ix.BlockLens[i+1] = ix.BlockLens[i+1], ix.Displs[i]-ix.Displs[i+1]+1
		}
	}
	return ix
}

// stridedMem is a memory type selecting n bytes: runs of 8 bytes 13
// apart, then the rest 5 bytes further on.
func stridedMem(n int64) datatype.Type {
	v := datatype.Vector{Count: n / 8, BlockLen: 8, Stride: 13, Elem: datatype.Bytes(1)}
	return datatype.Struct{Displs: []int64{0, v.Extent() + 5}, Types: []datatype.Type{v, datatype.Bytes(n % 8)}}
}

// scatter lays packed out in a fresh buffer where t selects.
func scatter(t datatype.Type, packed []byte) []byte {
	mem := make([]byte, t.Extent())
	for _, s := range datatype.Segments(t) {
		packed = packed[copy(mem[s.Off:s.Off+s.Len], packed):]
	}
	return mem
}

// gather collects the bytes t selects of mem, in the type's order.
func gather(t datatype.Type, mem []byte) []byte {
	var out []byte
	for _, s := range datatype.Segments(t) {
		out = append(out, mem[s.Off:s.Off+s.Len]...)
	}
	return out
}
