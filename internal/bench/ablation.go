package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dpfs/internal/cluster"
	"dpfs/internal/collective"
	"dpfs/internal/core"
	"dpfs/internal/datatype"
	"dpfs/internal/netsim"
	"dpfs/internal/stripe"
)

// This file holds the ablations DESIGN.md calls out: experiments the
// paper motivates qualitatively but does not plot, isolating individual
// design decisions.

// AblationStagger isolates the scheduling half of request combination
// (Sec. 4.2): combined linear reads with and without the staggered
// server start. A linear file spreads every client's bricks over all
// servers, so without staggering all ranks begin their sweep at server
// 0 and convoy.
func AblationStagger(ctx context.Context, cfg Config, np, io int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	var out []Measurement
	for _, stagger := range []bool{false, true} {
		c, err := cluster.Start(cluster.Config{
			Servers:       cluster.UniformClass(io, netsim.Class1()),
			Dir:           caseDir(cfg.Dir),
			RefBrickBytes: cfg.Tile * cfg.Tile * elemSize,
		})
		if err != nil {
			return nil, err
		}
		m, err := runStaggerCase(ctx, cfg, c, np, stagger)
		c.Close()
		if err != nil {
			return nil, err
		}
		m.Figure = "AblStagger"
		m.Class = "class1"
		if stagger {
			m.Label = "Combined+Stagger"
		} else {
			m.Label = "Combined, no stagger"
		}
		out = append(out, m)
	}
	return out, nil
}

func runStaggerCase(ctx context.Context, cfg Config, c *cluster.Cluster, np int, stagger bool) (Measurement, error) {
	dims := []int64{cfg.N, cfg.N}
	path := "/abl-stagger.dat"
	fs, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		return Measurement{}, err
	}
	f, err := fs.Create(path, elemSize, dims,
		core.Hint{Level: stripe.LevelLinear, BrickBytes: cfg.Tile * cfg.Tile * elemSize})
	if err != nil {
		fs.Close()
		return Measurement{}, err
	}
	f.Close()
	fs.Close()
	if err := fill(ctx, c, path, dims); err != nil {
		return Measurement{}, err
	}
	opts := cfg.withDispatch(core.Options{Combine: true, Stagger: stagger})
	return measure(ctx, cfg, c, np, opts, path,
		func(rank int) stripe.Section { return colSection(cfg.N, np, rank) }, false)
}

// AblationBrickShape compares multidim tile aspect ratios (square,
// row-shaped, column-shaped of equal byte size) under a (*, BLOCK)
// column read: the paper's argument for why the tile shape should
// match the access pattern.
func AblationBrickShape(ctx context.Context, cfg Config, np, io int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	t := cfg.Tile
	shapes := []struct {
		label string
		tile  []int64
	}{
		{"square tile", []int64{t, t}},
		{"row tile", []int64{t / 4, t * 4}},
		{"column tile", []int64{t * 4, t / 4}},
	}
	var out []Measurement
	for _, sh := range shapes {
		if sh.tile[0] < 1 || sh.tile[1] < 1 || sh.tile[0] > cfg.N || sh.tile[1] > cfg.N {
			continue
		}
		c, err := cluster.Start(cluster.Config{
			Servers:       cluster.UniformClass(io, netsim.Class1()),
			Dir:           caseDir(cfg.Dir),
			RefBrickBytes: cfg.Tile * cfg.Tile * elemSize,
		})
		if err != nil {
			return nil, err
		}
		m, err := runShapeCase(ctx, cfg, c, np, sh.tile)
		c.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.label, err)
		}
		m.Figure = "AblShape"
		m.Class = "class1"
		m.Label = sh.label
		out = append(out, m)
	}
	return out, nil
}

func runShapeCase(ctx context.Context, cfg Config, c *cluster.Cluster, np int, tile []int64) (Measurement, error) {
	dims := []int64{cfg.N, cfg.N}
	path := "/abl-shape.dat"
	fs, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		return Measurement{}, err
	}
	f, err := fs.Create(path, elemSize, dims, core.Hint{Level: stripe.LevelMultidim, Tile: tile})
	if err != nil {
		fs.Close()
		return Measurement{}, err
	}
	f.Close()
	fs.Close()
	if err := fill(ctx, c, path, dims); err != nil {
		return Measurement{}, err
	}
	opts := cfg.withDispatch(core.Options{Combine: true, Stagger: true})
	return measure(ctx, cfg, c, np, opts, path,
		func(rank int) stripe.Section { return colSection(cfg.N, np, rank) }, false)
}

// AblationServerCount sweeps the I/O node count at a fixed compute
// count, showing bandwidth scaling with storage parallelism (the
// paper's motivation for striping at all).
func AblationServerCount(ctx context.Context, cfg Config, np int, ios []int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	if len(ios) == 0 {
		ios = []int{1, 2, 4, 8}
	}
	var out []Measurement
	for _, io := range ios {
		m, err := RunLevelCase(ctx, cfg, np, io, netsim.Class1(),
			LevelCase{Label: "Combined Multi-dim", Level: stripe.LevelMultidim, Combine: true})
		if err != nil {
			return nil, fmt.Errorf("io=%d: %w", io, err)
		}
		m.Figure = "AblServers"
		m.Label = fmt.Sprintf("%d I/O nodes", io)
		out = append(out, m)
	}
	return out, nil
}

// AblationSieve prices the two units a read can move under a linear
// column access on the bandwidth-starved class 2: whole bricks (the
// paper's access unit, fetched when a data cache keeps them — each
// repetition starts cold, so nothing is served from it) and exactly
// the wanted bytes (the default with no cache: the servers sweep each
// brick's covering span and sieve it). Requests and positionings are
// the same in both rows, so the difference is the discarded data.
func AblationSieve(ctx context.Context, cfg Config, np, io int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	var out []Measurement
	for _, mode := range []struct {
		label      string
		cacheBytes int64
	}{
		{"Linear, whole bricks", cfg.N * cfg.N * elemSize},
		{"Linear, sieved", 0},
	} {
		c, err := cluster.Start(cluster.Config{
			Servers:       cluster.UniformClass(io, netsim.Class2()),
			Dir:           caseDir(cfg.Dir),
			RefBrickBytes: cfg.Tile * cfg.Tile * elemSize,
		})
		if err != nil {
			return nil, err
		}
		m, err := runSieveCase(ctx, cfg, c, np, mode.cacheBytes)
		c.Close()
		if err != nil {
			return nil, err
		}
		m.Figure = "AblSieve"
		m.Class = "class2"
		m.Label = mode.label
		out = append(out, m)
	}
	return out, nil
}

// runSieveCase measures one row of AblationSieve.
func runSieveCase(ctx context.Context, cfg Config, c *cluster.Cluster, np int, cacheBytes int64) (Measurement, error) {
	dims := []int64{cfg.N, cfg.N}
	path := "/abl-sieve.dat"
	fs, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		return Measurement{}, err
	}
	f, err := fs.Create(path, elemSize, dims,
		core.Hint{Level: stripe.LevelLinear, BrickBytes: cfg.Tile * cfg.Tile * elemSize})
	if err != nil {
		fs.Close()
		return Measurement{}, err
	}
	f.Close()
	fs.Close()
	if err := fill(ctx, c, path, dims); err != nil {
		return Measurement{}, err
	}
	opts := cfg.withDispatch(core.Options{Combine: true, Stagger: true})
	opts.CacheBytes = cacheBytes
	return measure(ctx, cfg, c, np, opts, path,
		func(rank int) stripe.Section { return colSection(cfg.N, np, rank) }, false)
}

// The three ways the collective ablation writes a rank's interleaved
// rows.
const (
	collPerRow   = "Independent"            // one WriteSection per row
	collTyped    = "Independent typed"      // one WriteAtTyped for all of a rank's rows
	collTwoPhase = "Collective (two-phase)" // one WriteAll per row
)

// AblationCollective contrasts independent I/O with two-phase
// collective I/O (internal/collective, the paper's MPI-IO future-work
// layer) under an interleaved (CYCLIC, *) row write, the pattern where
// per-rank requests fragment worst. Independent I/O is measured twice:
// naively, one call per row, and as one WriteAtTyped per rank with a
// vector file type over its rows, which the engine folds into one
// selection-bearing request per server.
func AblationCollective(ctx context.Context, cfg Config, np, io int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	var out []Measurement
	for _, mode := range []string{collPerRow, collTyped, collTwoPhase} {
		c, err := cluster.Start(cluster.Config{
			Servers:       cluster.UniformClass(io, netsim.Class1()),
			Dir:           caseDir(cfg.Dir),
			RefBrickBytes: cfg.Tile * cfg.Tile * elemSize,
		})
		if err != nil {
			return nil, err
		}
		m, err := runCollectiveCase(ctx, cfg, c, np, mode)
		c.Close()
		if err != nil {
			return nil, err
		}
		m.Figure = "AblColl"
		m.Class = "class1"
		m.Label = mode
		out = append(out, m)
	}
	return out, nil
}

func runCollectiveCase(ctx context.Context, cfg Config, c *cluster.Cluster, np int, mode string) (Measurement, error) {
	dims := []int64{cfg.N, cfg.N}
	path := "/abl-coll.dat"
	admin, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		return Measurement{}, err
	}
	f, err := admin.Create(path, elemSize, dims, core.Hint{Level: stripe.LevelMultidim, Tile: []int64{cfg.Tile, cfg.Tile}})
	if err != nil {
		admin.Close()
		return Measurement{}, err
	}
	f.Close()
	admin.Close()

	runs := make([]Measurement, 0, cfg.Reps)
	for rep := 0; rep < cfg.Reps; rep++ {
		m, err := measureCollective(ctx, c, cfg, np, path, mode)
		if err != nil {
			return Measurement{}, err
		}
		runs = append(runs, m)
	}
	sortMeasurements(runs)
	return runs[len(runs)/2], nil
}

// cyclicRows returns the file and memory types of one access to all of
// a rank's (CYCLIC, *) rows, round*np+rank of every round, offset by the
// rank's first row: the rows strided np apart in the file, packed in
// memory.
func cyclicRows(np, rounds int, rowBytes int64) (ftype, mtype datatype.Type) {
	return datatype.Vector{Count: int64(rounds), BlockLen: 1, Stride: int64(np), Elem: datatype.Bytes(rowBytes)},
		datatype.Bytes(int64(rounds) * rowBytes)
}

// measureCollective has every rank write rowsPerRank interleaved
// single rows ((CYCLIC, *)): independently row by row, independently
// in one access, or row by row through a collective group.
func measureCollective(ctx context.Context, c *cluster.Cluster, cfg Config, np int, path, mode string) (Measurement, error) {
	files := make([]*core.File, np)
	fss := make([]*core.FS, np)
	for r := 0; r < np; r++ {
		fs, err := c.NewFS(r, cfg.withDispatch(core.Options{Combine: true, Stagger: true}))
		if err != nil {
			return Measurement{}, err
		}
		fss[r] = fs
		f, err := fs.Open(path)
		if err != nil {
			return Measurement{}, err
		}
		files[r] = f
	}
	defer func() {
		for r := 0; r < np; r++ {
			if files[r] != nil {
				files[r].Close()
			}
			if fss[r] != nil {
				fss[r].Close()
			}
		}
	}()

	rounds := int(cfg.Tile) // one tile-row of interleaved rows
	rowBytes := cfg.N * elemSize
	data := make([]byte, rowBytes)
	g, err := collective.NewGroup(np)
	if err != nil {
		return Measurement{}, err
	}

	core.ResetStats()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, np)
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if mode == collTyped {
				ftype, mtype := cyclicRows(np, rounds, rowBytes)
				if err := files[rank].WriteAtTyped(ctx, int64(rank)*rowBytes, ftype, mtype, make([]byte, mtype.Size())); err != nil {
					errs <- err
				}
				return
			}
			buf := append([]byte(nil), data...)
			for round := 0; round < rounds; round++ {
				row := int64(round*np + rank)
				sec := stripe.NewSection([]int64{row, 0}, []int64{1, cfg.N})
				var err error
				if mode == collTwoPhase {
					err = g.WriteAll(ctx, rank, files[rank], sec, buf)
				} else {
					err = files[rank].WriteSection(ctx, sec, buf)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return Measurement{}, err
	}
	useful := int64(np*rounds) * rowBytes
	st := core.ReadStats()
	return Measurement{
		Elapsed:  elapsed,
		MBps:     float64(useful) / (1 << 20) / elapsed.Seconds(),
		Requests: st.Requests,
		MovedMB:  float64(st.BytesTransferred) / (1 << 20),
		UsefulMB: float64(useful) / (1 << 20),
	}, nil
}

// AblationParallel isolates the client's dispatch loop: a combined
// multidim row read where every rank's combined requests cover all
// servers, shipped one at a time (the paper's model, MaxInflight 1)
// versus one per server at once (the engine's default, MaxInflight 0).
// Staggering is off in both variants — its scheduling effect has its
// own ablation, and disabling it here makes the one-at-a-time convoy
// deterministic: all np ranks sweep the servers in the same order, so
// the sweep drains in (np+S-1) service times, while overlapped dispatch
// keeps every device queue full and drains in np. At np=S=4 that is a
// 7:4 (1.75x) aggregate bandwidth gap on the class-1 shaped cluster.
func AblationParallel(ctx context.Context, cfg Config, np, io int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	var out []Measurement
	for _, inflight := range []int{1, 0} {
		c, err := cluster.Start(cluster.Config{
			Servers:       cluster.UniformClass(io, netsim.Class1()),
			Dir:           caseDir(cfg.Dir),
			RefBrickBytes: cfg.Tile * cfg.Tile * elemSize,
		})
		if err != nil {
			return nil, err
		}
		m, err := runParallelCase(ctx, cfg, c, np, inflight)
		c.Close()
		if err != nil {
			return nil, err
		}
		m.Figure = "AblParallel"
		m.Class = "class1"
		m.Label = fmt.Sprintf("MaxInflight %d", inflight)
		out = append(out, m)
	}
	return out, nil
}

func runParallelCase(ctx context.Context, cfg Config, c *cluster.Cluster, np, inflight int) (Measurement, error) {
	dims := []int64{cfg.N, cfg.N}
	path := "/abl-parallel.dat"
	fs, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		return Measurement{}, err
	}
	f, err := fs.Create(path, elemSize, dims,
		core.Hint{Level: stripe.LevelMultidim, Tile: []int64{cfg.Tile, cfg.Tile}})
	if err != nil {
		fs.Close()
		return Measurement{}, err
	}
	f.Close()
	fs.Close()
	if err := fill(ctx, c, path, dims); err != nil {
		return Measurement{}, err
	}
	opts := cfg.withDispatch(core.Options{Combine: true})
	opts.MaxInflight = inflight // the one variable of this ablation
	return measure(ctx, cfg, c, np, opts, path,
		func(rank int) stripe.Section { return rowSection(cfg.N, np, rank) }, false)
}

// AblationCache isolates the client-side cache (internal/cache): a
// re-read workload (every rank reads its row slice twice; the second,
// warm pass is timed) and an open-heavy workload (repeated Opens of
// the same path; MBps reports opens per second, not bandwidth). Cache
// off is the baseline engine; cache on enables the data cache,
// metadata cache, and readahead together.
func AblationCache(ctx context.Context, cfg Config, np, io int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	var out []Measurement
	for _, cached := range []bool{false, true} {
		c, err := cluster.Start(cluster.Config{
			Servers:       cluster.UniformClass(io, netsim.Class1()),
			Dir:           caseDir(cfg.Dir),
			RefBrickBytes: cfg.Tile * cfg.Tile * elemSize,
		})
		if err != nil {
			return nil, err
		}
		m, err := runCacheReRead(ctx, cfg, c, np, cached)
		if err == nil {
			m.Figure = "AblCache"
			m.Class = "class1"
			if cached {
				m.Label = "Re-read, cache on"
			} else {
				m.Label = "Re-read, cache off"
			}
			out = append(out, m)
			m, err = runCacheOpens(ctx, cfg, c, cached)
		}
		c.Close()
		if err != nil {
			return nil, err
		}
		m.Figure = "AblCache"
		m.Class = "class1"
		if cached {
			m.Label = "Open-heavy, cache on"
		} else {
			m.Label = "Open-heavy, cache off"
		}
		out = append(out, m)
	}
	return out, nil
}

// cacheOpts are the engine options of the cache-on ablation variants:
// generous data budget, a TTL comfortably longer than a measurement,
// and a modest readahead depth.
func (c Config) cacheOpts(opts core.Options) core.Options {
	opts = c.withDispatch(opts)
	if opts.CacheBytes == 0 {
		opts.CacheBytes = 256 << 20
	}
	if opts.MetaTTL == 0 {
		opts.MetaTTL = time.Minute
	}
	if opts.Readahead == 0 {
		opts.Readahead = 2
	}
	return opts
}

func runCacheReRead(ctx context.Context, cfg Config, c *cluster.Cluster, np int, cached bool) (Measurement, error) {
	dims := []int64{cfg.N, cfg.N}
	path := "/abl-cache.dat"
	admin, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		return Measurement{}, err
	}
	f, err := admin.Create(path, elemSize, dims,
		core.Hint{Level: stripe.LevelMultidim, Tile: []int64{cfg.Tile, cfg.Tile}})
	if err != nil {
		admin.Close()
		return Measurement{}, err
	}
	f.Close()
	admin.Close()
	if err := fill(ctx, c, path, dims); err != nil {
		return Measurement{}, err
	}

	opts := cfg.withDispatch(core.Options{Combine: true, Stagger: true})
	if cached {
		opts = cfg.cacheOpts(core.Options{Combine: true, Stagger: true})
	}

	// Unlike measure(), the engines persist across the warm and timed
	// passes: the cache lives in the engine, and the point is the warm
	// hit. Reps share the engines too — every timed pass after the first
	// is equally warm, and the median damps scheduling noise.
	runs := make([]Measurement, 0, cfg.Reps)
	err = func() error {
		fss := make([]*core.FS, np)
		files := make([]*core.File, np)
		bufs := make([][]byte, np)
		var useful int64
		defer func() {
			for p := 0; p < np; p++ {
				if files[p] != nil {
					files[p].Close()
				}
				if fss[p] != nil {
					fss[p].Close()
				}
			}
		}()
		for p := 0; p < np; p++ {
			fs, err := c.NewFS(p, opts)
			if err != nil {
				return err
			}
			fss[p] = fs
			f, err := fs.Open(path)
			if err != nil {
				return err
			}
			files[p] = f
			sec := rowSection(cfg.N, np, p)
			bufs[p] = make([]byte, sec.Bytes(elemSize))
			useful += int64(len(bufs[p]))
		}
		pass := func() (time.Duration, error) {
			start := time.Now()
			var wg sync.WaitGroup
			errs := make(chan error, np)
			for p := 0; p < np; p++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					if err := files[rank].ReadSection(ctx, rowSection(cfg.N, np, rank), bufs[rank]); err != nil {
						errs <- err
					}
				}(p)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				return 0, err
			}
			return time.Since(start), nil
		}
		if _, err := pass(); err != nil { // warm (fills caches when on)
			return err
		}
		for rep := 0; rep < cfg.Reps; rep++ {
			elapsed, err := pass()
			if err != nil {
				return err
			}
			runs = append(runs, Measurement{
				Elapsed:  elapsed,
				MBps:     float64(useful) / (1 << 20) / elapsed.Seconds(),
				UsefulMB: float64(useful) / (1 << 20),
			})
		}
		return nil
	}()
	if err != nil {
		return Measurement{}, err
	}
	sortMeasurements(runs)
	return runs[len(runs)/2], nil
}

// runCacheOpens times repeated Opens of one path through a single
// engine. The returned Measurement abuses MBps to carry opens per
// second (UsefulMB stays zero: no data moves).
func runCacheOpens(ctx context.Context, cfg Config, c *cluster.Cluster, cached bool) (Measurement, error) {
	_ = ctx
	path := "/abl-cache.dat" // created by runCacheReRead on the same cluster
	opts := cfg.withDispatch(core.Options{Combine: true})
	if cached {
		opts = cfg.cacheOpts(core.Options{Combine: true})
	}
	fs, err := c.NewFS(0, opts)
	if err != nil {
		return Measurement{}, err
	}
	defer fs.Close()
	const opens = 200
	f, err := fs.Open(path) // warm (fills the metadata cache when on)
	if err != nil {
		return Measurement{}, err
	}
	f.Close()
	runs := make([]Measurement, 0, cfg.Reps)
	for rep := 0; rep < cfg.Reps; rep++ {
		start := time.Now()
		for i := 0; i < opens; i++ {
			f, err := fs.Open(path)
			if err != nil {
				return Measurement{}, err
			}
			f.Close()
		}
		elapsed := time.Since(start)
		runs = append(runs, Measurement{
			Elapsed: elapsed,
			MBps:    float64(opens) / elapsed.Seconds(), // opens/s
		})
	}
	sortMeasurements(runs)
	return runs[len(runs)/2], nil
}

// AblationReplica isolates brick replication: R=2 against the R=1
// baseline on the same cluster. Three costs are measured. Write
// amplification: every R=2 write fans out to both replicas, so moved
// bytes double and write bandwidth drops. Healthy-read overhead: none
// by construction (reads go to the preferred replica only), which the
// R=2 read row demonstrates. Failover-read cost: with one server dead,
// every read whose preferred replica lived there pays a failed attempt
// (or an open-breaker short-circuit after the first few) before the
// surviving copy serves it.
func AblationReplica(ctx context.Context, cfg Config, np, io int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	var out []Measurement
	for _, rep := range []int{1, 2} {
		c, err := cluster.Start(cluster.Config{
			Servers:       cluster.UniformClass(io, netsim.Class1()),
			Dir:           caseDir(cfg.Dir),
			RefBrickBytes: cfg.Tile * cfg.Tile * elemSize,
		})
		if err != nil {
			return nil, err
		}
		ms, err := runReplicaCase(ctx, cfg, c, np, rep)
		c.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

func runReplicaCase(ctx context.Context, cfg Config, c *cluster.Cluster, np, rep int) ([]Measurement, error) {
	dims := []int64{cfg.N, cfg.N}
	path := "/abl-replica.dat"
	fs, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		return nil, err
	}
	f, err := fs.Create(path, elemSize, dims,
		core.Hint{Level: stripe.LevelMultidim, Tile: []int64{cfg.Tile, cfg.Tile}, Replicas: rep})
	if err != nil {
		fs.Close()
		return nil, err
	}
	f.Close()
	fs.Close()

	opts := cfg.withDispatch(core.Options{Combine: true})
	secs := func(rank int) stripe.Section { return rowSection(cfg.N, np, rank) }
	tag := func(m Measurement, label string) Measurement {
		m.Figure, m.Class, m.Label = "AblReplica", "class1", label
		return m
	}
	var out []Measurement

	w, err := measure(ctx, cfg, c, np, opts, path, secs, true)
	if err != nil {
		return nil, err
	}
	out = append(out, tag(w, fmt.Sprintf("R=%d write", rep)))

	r, err := measure(ctx, cfg, c, np, opts, path, secs, false)
	if err != nil {
		return nil, err
	}
	out = append(out, tag(r, fmt.Sprintf("R=%d read", rep)))

	if rep > 1 {
		// Kill one server; reads whose preferred replica lived there
		// now fail over to the surviving copy.
		if err := c.IOServers[len(c.IOServers)-1].Close(); err != nil {
			return nil, err
		}
		fo, err := measure(ctx, cfg, c, np, opts, path, secs, false)
		if err != nil {
			return nil, err
		}
		out = append(out, tag(fo, fmt.Sprintf("R=%d read, 1 server dead", rep)))
	}
	return out, nil
}

// AblationMeta prices the durable metadata commit pipeline: one
// catalog shard, path-hash sharding over two (independent commit
// pipelines), and one shard replicated three ways with majority
// acknowledgement (the durability upgrade of DESIGN.md §13). The
// workload is open-heavy — np clients concurrently create small
// files, and each create costs two durable catalog transactions
// (generation allocation plus the create itself) and negligible data
// I/O. Every variant runs with Sync on and a modeled per-fsync device
// cost (cluster.Config.MetaSyncDelay), so the contrast is deterministic
// across host filesystems; concurrent committers share fsyncs (the
// WAL's one commit path, DESIGN.md §12), which is why a second shard
// buys little here. MBps abuses the field to carry creates per second,
// as runCacheOpens does for opens.
func AblationMeta(ctx context.Context, cfg Config, np, io int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	cases := []struct {
		label    string
		shards   int
		replicas int
	}{
		{"1 shard", 1, 1},
		{"2 shards", 2, 1},
		// The replication tax: every create additionally waits for a
		// majority of the R=3 group to hold it durably (DESIGN.md §13).
		{"1 shard R=3 majority-ack", 1, 3},
	}
	var out []Measurement
	for _, cs := range cases {
		c, err := cluster.Start(cluster.Config{
			Servers:       cluster.Uniform(io),
			Dir:           caseDir(cfg.Dir),
			DurableMeta:   true,
			MetaSync:      true,
			MetaSyncDelay: 4 * time.Millisecond,
			MetaShards:    cs.shards,
			MetaReplicas:  cs.replicas,
		})
		if err != nil {
			return nil, err
		}
		m, err := runMetaCreates(ctx, cfg, c, np)
		c.Close()
		if err != nil {
			return nil, err
		}
		m.Figure = "AblMeta"
		m.Label = cs.label
		out = append(out, m)
	}
	return out, nil
}

// runMetaCreates times np concurrent clients each creating small
// files (DPFS-Open for writing). Created files are removed untimed
// after each pass so the catalog stays small — per-create cost would
// otherwise grow with the accumulated table scans of the capacity
// check and drown the commit pipeline the ablation isolates. The
// returned Measurement abuses MBps to carry creates per second.
func runMetaCreates(ctx context.Context, cfg Config, c *cluster.Cluster, np int) (Measurement, error) {
	const creates = 6 // per client per pass; each costs two durable commits
	engines := make([]*core.FS, np)
	for p := range engines {
		fs, err := c.NewFS(p, core.Options{Combine: true})
		if err != nil {
			return Measurement{}, err
		}
		engines[p] = fs
	}
	defer func() {
		for _, fs := range engines {
			fs.Close()
		}
	}()
	hint := core.Hint{Level: stripe.LevelMultidim, Tile: []int64{8, 8}}
	forAll := func(op func(rank, i int) error) error {
		var wg sync.WaitGroup
		errs := make(chan error, np)
		for p := 0; p < np; p++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				for i := 0; i < creates; i++ {
					if err := op(rank, i); err != nil {
						errs <- err
						return
					}
				}
			}(p)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			return err
		}
		return nil
	}
	path := func(rank, i int) string { return fmt.Sprintf("/abl-meta-p%d-f%d.dat", rank, i) }
	mkFiles := func() error {
		return forAll(func(rank, i int) error {
			f, err := engines[rank].Create(path(rank, i), elemSize, []int64{8, 8}, hint)
			if err != nil {
				return err
			}
			return f.Close()
		})
	}
	rmFiles := func() error {
		return forAll(func(rank, i int) error { return engines[rank].Remove(ctx, path(rank, i)) })
	}
	if err := mkFiles(); err != nil { // warm: server dials, conn setup
		return Measurement{}, err
	}
	if err := rmFiles(); err != nil {
		return Measurement{}, err
	}
	runs := make([]Measurement, 0, cfg.Reps)
	for rep := 0; rep < cfg.Reps; rep++ {
		start := time.Now()
		if err := mkFiles(); err != nil {
			return Measurement{}, err
		}
		elapsed := time.Since(start)
		if err := rmFiles(); err != nil {
			return Measurement{}, err
		}
		runs = append(runs, Measurement{
			Elapsed: elapsed,
			MBps:    float64(np*creates) / elapsed.Seconds(), // creates/s
		})
	}
	sortMeasurements(runs)
	return runs[len(runs)/2], nil
}

// Ablation dispatches an ablation by name.
func Ablation(ctx context.Context, cfg Config, name string) ([]Measurement, error) {
	switch name {
	case "stagger":
		return AblationStagger(ctx, cfg, 8, 8)
	case "shape":
		return AblationBrickShape(ctx, cfg, 8, 4)
	case "servers":
		return AblationServerCount(ctx, cfg, 8, nil)
	case "sieve":
		return AblationSieve(ctx, cfg, 8, 4)
	case "collective":
		return AblationCollective(ctx, cfg, 8, 4)
	case "parallel":
		return AblationParallel(ctx, cfg, 4, 4)
	case "cache":
		return AblationCache(ctx, cfg, 4, 4)
	case "replica":
		return AblationReplica(ctx, cfg, 4, 4)
	case "meta":
		return AblationMeta(ctx, cfg, 16, 2)
	}
	return nil, fmt.Errorf("bench: unknown ablation %q (stagger, shape, servers, sieve, collective, parallel, cache, replica, meta)", name)
}

// AblationNames lists the available ablations.
func AblationNames() []string {
	return []string{"stagger", "shape", "servers", "sieve", "collective", "parallel", "cache", "replica", "meta"}
}
