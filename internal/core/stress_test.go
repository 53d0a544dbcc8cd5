package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/stripe"
)

// refFile mirrors one DPFS file's full contents in memory.
type refFile struct {
	mu   sync.Mutex
	dims []int64
	elem int64
	data []byte
}

// embedSection writes a packed section buffer into the row-major full
// array (the inverse of reading a section).
func (rf *refFile) embedSection(sec stripe.Section, packed []byte) {
	nd := len(rf.dims)
	rowBytes := sec.Count[nd-1] * rf.elem
	pos := int64(0)
	var walk func(d int, base int64)
	walk = func(d int, base int64) {
		if d == nd-1 {
			off := (base + sec.Start[d]) * rf.elem
			copy(rf.data[off:off+rowBytes], packed[pos:pos+rowBytes])
			pos += rowBytes
			return
		}
		for i := int64(0); i < sec.Count[d]; i++ {
			walk(d+1, (base+sec.Start[d]+i)*rf.dims[d+1])
		}
	}
	walk(0, 0)
}

// extract reads a packed section out of the full array.
func (rf *refFile) extract(sec stripe.Section) []byte {
	nd := len(rf.dims)
	out := make([]byte, sec.Bytes(rf.elem))
	rowBytes := sec.Count[nd-1] * rf.elem
	pos := int64(0)
	var walk func(d int, base int64)
	walk = func(d int, base int64) {
		if d == nd-1 {
			off := (base + sec.Start[d]) * rf.elem
			copy(out[pos:pos+rowBytes], rf.data[off:off+rowBytes])
			pos += rowBytes
			return
		}
		for i := int64(0); i < sec.Count[d]; i++ {
			walk(d+1, (base+sec.Start[d]+i)*rf.dims[d+1])
		}
	}
	walk(0, 0)
	return out
}

func randSection(r *rand.Rand, dims []int64) stripe.Section {
	start := make([]int64, len(dims))
	count := make([]int64, len(dims))
	for d, n := range dims {
		start[d] = int64(r.Intn(int(n)))
		count[d] = 1 + int64(r.Intn(int(n-start[d])))
	}
	return stripe.NewSection(start, count)
}

// TestStressRandomOps runs several concurrent compute clients doing
// random section writes and reads on a set of files of all three
// levels, checking every read against an in-memory reference.
func TestStressRandomOps(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(4), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxT(t)

	// Fixed file population: one file per level, two goroutine-shared.
	specs := []struct {
		path string
		hint core.Hint
		dims []int64
		elem int64
	}{
		{"/lin", core.Hint{Level: stripe.LevelLinear, BrickBytes: 700}, []int64{37, 53}, 4},
		{"/md", core.Hint{Level: stripe.LevelMultidim, Tile: []int64{7, 9}}, []int64{41, 33}, 8},
		{"/arr", core.Hint{Level: stripe.LevelArray,
			Pattern: []stripe.Dist{stripe.DistBlock, stripe.DistBlock}, Grid: []int64{5, 3}}, []int64{40, 24}, 2},
	}
	refs := make(map[string]*refFile)
	admin, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	for _, sp := range specs {
		f, err := admin.Create(sp.path, sp.elem, sp.dims, sp.hint)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		n := sp.elem
		for _, d := range sp.dims {
			n *= d
		}
		refs[sp.path] = &refFile{dims: sp.dims, elem: sp.elem, data: make([]byte, n)}
	}

	const workers = 6
	const opsPerWorker = 60
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)*7919 + 13))
			opts := core.Options{Combine: w%2 == 0, Stagger: w%2 == 0}
			fs, err := c.NewFS(w, opts)
			if err != nil {
				errs <- err
				return
			}
			defer fs.Close()
			handles := map[string]*core.File{}
			for _, sp := range specs {
				handles[sp.path], err = fs.Open(sp.path)
				if err != nil {
					errs <- err
					return
				}
			}
			for op := 0; op < opsPerWorker; op++ {
				sp := specs[r.Intn(len(specs))]
				rf := refs[sp.path]
				f := handles[sp.path]
				sec := randSection(r, sp.dims)
				if r.Intn(2) == 0 {
					payload := make([]byte, sec.Bytes(sp.elem))
					r.Read(payload)
					// Hold the reference lock across the DPFS write so
					// reference and file system stay in step.
					rf.mu.Lock()
					err := f.WriteSection(ctx, sec, payload)
					if err == nil {
						rf.embedSection(sec, payload)
					}
					rf.mu.Unlock()
					if err != nil {
						errs <- fmt.Errorf("worker %d write %s %v: %w", w, sp.path, sec, err)
						return
					}
				} else {
					buf := make([]byte, sec.Bytes(sp.elem))
					rf.mu.Lock()
					err := f.ReadSection(ctx, sec, buf)
					var want []byte
					if err == nil {
						want = rf.extract(sec)
					}
					rf.mu.Unlock()
					if err != nil {
						errs <- fmt.Errorf("worker %d read %s %v: %w", w, sp.path, sec, err)
						return
					}
					if !bytes.Equal(buf, want) {
						errs <- fmt.Errorf("worker %d read %s %v: data mismatch", w, sp.path, sec)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Final full-array verification of every file.
	for _, sp := range specs {
		f, err := admin.Open(sp.path)
		if err != nil {
			t.Fatal(err)
		}
		full := stripe.FullSection(sp.dims)
		buf := make([]byte, full.Bytes(sp.elem))
		if err := f.ReadSection(ctx, full, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, refs[sp.path].data) {
			t.Fatalf("%s: final contents diverge from reference", sp.path)
		}
		f.Close()
	}
}

// TestStressLifecycle exercises create/rename/remove churn from
// concurrent clients without data operations racing the namespace.
func TestStressLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(3), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxT(t)

	const workers = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fs, err := c.NewFS(w, core.Options{Combine: true})
			if err != nil {
				errs <- err
				return
			}
			defer fs.Close()
			for i := 0; i < 20; i++ {
				p := fmt.Sprintf("/w%d-f%d", w, i)
				f, err := fs.Create(p, 1, []int64{4096}, core.Hint{BrickBytes: 512})
				if err != nil {
					errs <- err
					return
				}
				if err := f.WriteAt(ctx, bytes.Repeat([]byte{byte(i)}, 4096), 0); err != nil {
					errs <- err
					return
				}
				f.Close()
				moved := p + "-moved"
				if err := fs.Rename(ctx, p, moved); err != nil {
					errs <- err
					return
				}
				f2, err := fs.Open(moved)
				if err != nil {
					errs <- err
					return
				}
				buf := make([]byte, 4096)
				if err := f2.ReadAt(ctx, buf, 0); err != nil {
					errs <- err
					return
				}
				f2.Close()
				if buf[0] != byte(i) {
					errs <- fmt.Errorf("worker %d file %d: wrong content after rename", w, i)
					return
				}
				if i%2 == 0 {
					if err := fs.Remove(ctx, moved); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The directory reflects exactly the survivors.
	cat, err := c.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	_, files, err := cat.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != workers*10 {
		t.Fatalf("%d files survive, want %d", len(files), workers*10)
	}
}
