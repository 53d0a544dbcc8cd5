package bench

import (
	"context"
	"fmt"
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
	linear := cfg.hintFor(stripe.LevelLinear, np)
	return sweep(ctx, cfg, "AblStagger", netsim.Class1(), io, np, colBlocks(cfg.N, np), []variant{
		{"Combined, no stagger", linear, withDispatch(core.Options{Combine: true})},
		{"Combined+Stagger", linear, withDispatch(core.Options{Combine: true, Stagger: true})},
	})
}

// AblationBrickShape compares multidim tile aspect ratios (square,
// row-shaped, column-shaped of equal byte size) under a (*, BLOCK)
// column read: the paper's argument for why the tile shape should
// match the access pattern.
func AblationBrickShape(ctx context.Context, cfg Config, np, io int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	return sweep(ctx, cfg, "AblShape", netsim.Class1(), io, np, colBlocks(cfg.N, np), cfg.tileShapes())
}

// tileShapes are the rows of the shape ablation that fit the array.
func (c Config) tileShapes() []variant {
	t := c.Tile
	var out []variant
	for _, sh := range []struct {
		label string
		tile  []int64
	}{
		{"square tile", []int64{t, t}},
		{"row tile", []int64{t / 4, t * 4}},
		{"column tile", []int64{t * 4, t / 4}},
	} {
		if sh.tile[0] < 1 || sh.tile[1] < 1 || sh.tile[0] > c.N || sh.tile[1] > c.N {
			continue
		}
		out = append(out, variant{sh.label, core.Hint{Level: stripe.LevelMultidim, Tile: sh.tile},
			withDispatch(core.Options{Combine: true, Stagger: true})})
	}
	return out
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
		ms, err := sweep(ctx, cfg, "AblServers", netsim.Class1(), io, np, colBlocks(cfg.N, np), []variant{
			{fmt.Sprintf("%d I/O nodes", io), cfg.hintFor(stripe.LevelMultidim, np), cfg.figureOpts(true)},
		})
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
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
	linear := cfg.hintFor(stripe.LevelLinear, np)
	return sweep(ctx, cfg, "AblSieve", netsim.Class2(), io, np, colBlocks(cfg.N, np), []variant{
		{"Linear, whole bricks", linear, cfg.figureOpts(true)},
		{"Linear, sieved", linear, withDispatch(core.Options{Combine: true, Stagger: true})},
	})
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
		m, err := onCluster(cfg, cluster.Config{Servers: cluster.UniformClass(io, netsim.Class1())}, func(c *cluster.Cluster) (Measurement, error) {
			if err := newArray(ctx, cfg, c, cfg.hintFor(stripe.LevelMultidim, np), false); err != nil {
				return Measurement{}, err
			}
			return median(cfg.Reps, func() (Measurement, error) { return measureCollective(ctx, cfg, c, np, mode) })
		})
		if err != nil {
			return nil, err
		}
		out = append(out, m.tag("AblColl", "class1", mode))
	}
	return out, nil
}

// cyclicRows returns the file and memory types of one access to all of
// a rank's (CYCLIC, *) rows, round*np+rank of every round, offset by the
// rank's first row: the rows strided np apart in the file, packed in
// memory.
func cyclicRows(np, rounds int, rowBytes int64) (ftype, mtype datatype.Type) {
	return datatype.Vector{Count: int64(rounds), BlockLen: 1, Stride: int64(np), Elem: datatype.Bytes(rowBytes)},
		datatype.Bytes(int64(rounds) * rowBytes)
}

// measureCollective has every rank write one tile-row's worth of
// interleaved single rows ((CYCLIC, *)): independently row by row,
// independently in one access, or row by row through a collective
// group.
func measureCollective(ctx context.Context, cfg Config, c *cluster.Cluster, np int, mode string) (Measurement, error) {
	t, err := newTeam(c, np, withDispatch(core.Options{Combine: true, Stagger: true}), arrayPath)
	if err != nil {
		return Measurement{}, err
	}
	defer t.close()
	rounds := int(cfg.Tile)
	rowBytes := cfg.N * elemSize
	g, err := collective.NewGroup(np)
	if err != nil {
		return Measurement{}, err
	}
	elapsed, err := together(np, func(rank int) error {
		if mode == collTyped {
			ftype, mtype := cyclicRows(np, rounds, rowBytes)
			return t.files[rank].WriteAtTyped(ctx, int64(rank)*rowBytes, ftype, mtype, make([]byte, mtype.Size()))
		}
		buf := make([]byte, rowBytes)
		for round := 0; round < rounds; round++ {
			sec := stripe.NewSection([]int64{int64(round*np + rank), 0}, []int64{1, cfg.N})
			var err error
			if mode == collTwoPhase {
				err = g.WriteAll(ctx, rank, t.files[rank], sec, buf)
			} else {
				err = t.files[rank].WriteSection(ctx, sec, buf)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return Measurement{}, err
	}
	return t.measurement(int64(np*rounds)*rowBytes, elapsed), nil
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
	multidim := cfg.hintFor(stripe.LevelMultidim, np)
	return sweep(ctx, cfg, "AblParallel", netsim.Class1(), io, np, rowBlocks(cfg.N, np), []variant{
		{"MaxInflight 1", multidim, withDispatch(core.Options{Combine: true})},
		{"MaxInflight 0", multidim, core.Options{Combine: true}},
	})
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
		state := "cache off"
		if cached {
			state = "cache on"
		}
		ms, err := onCluster(cfg, cluster.Config{Servers: cluster.UniformClass(io, netsim.Class1())}, func(c *cluster.Cluster) ([]Measurement, error) {
			reread, err := runCacheReRead(ctx, cfg, c, np, cacheOpts(core.Options{Combine: true, Stagger: true}, cached))
			if err != nil {
				return nil, err
			}
			opens, err := runCacheOpens(cfg, c, cacheOpts(core.Options{Combine: true}, cached))
			if err != nil {
				return nil, err
			}
			return []Measurement{
				reread.tag("AblCache", "class1", "Re-read, "+state),
				opens.tag("AblCache", "class1", "Open-heavy, "+state),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// cacheOpts are the engine options of the cache ablation's variants:
// with the cache on, a generous data budget, a TTL comfortably longer
// than a measurement, and a modest readahead depth.
func cacheOpts(opts core.Options, cached bool) core.Options {
	opts = withDispatch(opts)
	if cached {
		opts.CacheBytes, opts.MetaTTL, opts.Readahead = 256<<20, time.Minute, 2
	}
	return opts
}

// runCacheReRead has np ranks read their (BLOCK, *) slices of a filled
// array once to warm the engines, then times cfg.Reps more passes and
// reports the median with the requests its engines issued during it.
func runCacheReRead(ctx context.Context, cfg Config, c *cluster.Cluster, np int, opts core.Options) (Measurement, error) {
	if err := newArray(ctx, cfg, c, cfg.hintFor(stripe.LevelMultidim, np), true); err != nil {
		return Measurement{}, err
	}
	// Unlike measure, the engines persist across the warm and timed
	// passes: the cache lives in the engine, and the point is the warm
	// hit. Reps share the engines too — every timed pass after the first
	// is equally warm, and the median damps scheduling noise.
	t, err := newTeam(c, np, opts, arrayPath)
	if err != nil {
		return Measurement{}, err
	}
	defer t.close()
	secFor := rowBlocks(cfg.N, np)
	bufs, useful := buffers(np, secFor)
	read := func(rank int) error { return t.files[rank].ReadSection(ctx, secFor(rank), bufs[rank]) }
	if _, err := together(np, read); err != nil { // warm (fills caches when on)
		return Measurement{}, err
	}
	return median(cfg.Reps, func() (Measurement, error) {
		before := t.requests()
		elapsed, err := together(np, read)
		if err != nil {
			return Measurement{}, err
		}
		m := rate(useful, elapsed)
		m.Requests = t.requests() - before
		return m, nil
	})
}

// cacheOpens is how many Opens one open-heavy pass times.
const cacheOpens = 200

// runCacheOpens times repeated Opens of the array runCacheReRead made on
// c through a single engine. The returned Measurement abuses MBps to
// carry opens per second (UsefulMB stays zero: no data moves).
func runCacheOpens(cfg Config, c *cluster.Cluster, opts core.Options) (Measurement, error) {
	fs, err := c.NewFS(0, opts)
	if err != nil {
		return Measurement{}, err
	}
	defer fs.Close()
	open := func() error {
		f, err := fs.Open(arrayPath)
		if err != nil {
			return err
		}
		return f.Close()
	}
	if err := open(); err != nil { // warm (fills the metadata cache when on)
		return Measurement{}, err
	}
	return median(cfg.Reps, func() (Measurement, error) {
		start := time.Now()
		for i := 0; i < cacheOpens; i++ {
			if err := open(); err != nil {
				return Measurement{}, err
			}
		}
		elapsed := time.Since(start)
		return Measurement{Elapsed: elapsed, MBps: cacheOpens / elapsed.Seconds()}, nil
	})
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
		ms, err := onCluster(cfg, cluster.Config{Servers: cluster.UniformClass(io, netsim.Class1())}, func(c *cluster.Cluster) ([]Measurement, error) {
			return runReplicaCase(ctx, cfg, c, np, rep)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// runReplicaCase writes and reads an R=rep array's (BLOCK, *) slices
// and, replicated, reads them again with c's last server dead.
func runReplicaCase(ctx context.Context, cfg Config, c *cluster.Cluster, np, rep int) ([]Measurement, error) {
	hint := cfg.hintFor(stripe.LevelMultidim, np)
	hint.Replicas = rep
	opts := withDispatch(core.Options{Combine: true})
	secFor := rowBlocks(cfg.N, np)
	tag := func(m Measurement, what string) Measurement {
		return m.tag("AblReplica", "class1", fmt.Sprintf("R=%d %s", rep, what))
	}
	w, err := measureArray(ctx, cfg, c, np, hint, opts, secFor, true)
	if err != nil {
		return nil, err
	}
	r, err := measure(ctx, cfg, c, np, opts, secFor, false)
	if err != nil {
		return nil, err
	}
	out := []Measurement{tag(w, "write"), tag(r, "read")}
	if rep > 1 {
		// Kill one server; reads whose preferred replica lived there
		// now fail over to the surviving copy.
		if err := c.IOServers[len(c.IOServers)-1].Close(); err != nil {
			return nil, err
		}
		fo, err := measure(ctx, cfg, c, np, opts, secFor, false)
		if err != nil {
			return nil, err
		}
		out = append(out, tag(fo, "read, 1 server dead"))
	}
	return out, nil
}

// AblationMeta prices the durable metadata commit pipeline: one
// catalog, and the same catalog replicated three ways with majority
// acknowledgement (the durability upgrade of DESIGN.md §13). The
// workload is open-heavy — np clients concurrently create small
// files, and each create costs two durable catalog transactions
// (generation allocation plus the create itself) and negligible data
// I/O. Both variants run with Sync on and a modeled per-fsync device
// cost (cluster.Config.MetaSyncDelay), so the contrast is deterministic
// across host filesystems; concurrent committers share fsyncs (the
// WAL's one commit path, DESIGN.md §12). MBps abuses the field to carry
// creates per second, as runCacheOpens does for opens.
func AblationMeta(ctx context.Context, cfg Config, np, io int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	cases := []struct {
		label    string
		replicas int
	}{
		{"1 catalog", 1},
		// The replication tax: every create additionally waits for a
		// majority of the R=3 group to hold it durably (DESIGN.md §13).
		{"R=3 majority-ack", 3},
	}
	var out []Measurement
	for _, cs := range cases {
		cc := cluster.Config{
			Servers:       cluster.Uniform(io),
			DurableMeta:   true,
			MetaSync:      true,
			MetaSyncDelay: 4 * time.Millisecond,
			MetaReplicas:  cs.replicas,
		}
		m, err := onCluster(cfg, cc, func(c *cluster.Cluster) (Measurement, error) { return runMetaCreates(ctx, cfg, c, np) })
		if err != nil {
			return nil, err
		}
		out = append(out, m.tag("AblMeta", "", cs.label))
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
	t, err := newTeam(c, np, core.Options{Combine: true}, "")
	if err != nil {
		return Measurement{}, err
	}
	defer t.close()
	hint := core.Hint{Level: stripe.LevelMultidim, Tile: []int64{8, 8}}
	path := func(rank, i int) string { return fmt.Sprintf("/abl-meta-p%d-f%d.dat", rank, i) }
	forAll := func(op func(fs *core.FS, path string) error) (time.Duration, error) {
		return together(np, func(rank int) error {
			for i := 0; i < creates; i++ {
				if err := op(t.fss[rank], path(rank, i)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	mkFiles := func() (time.Duration, error) {
		return forAll(func(fs *core.FS, path string) error {
			f, err := fs.Create(path, elemSize, []int64{8, 8}, hint)
			if err != nil {
				return err
			}
			return f.Close()
		})
	}
	rmFiles := func() error {
		_, err := forAll(func(fs *core.FS, path string) error { return fs.Remove(ctx, path) })
		return err
	}
	if _, err := mkFiles(); err != nil { // warm: server dials, conn setup
		return Measurement{}, err
	}
	if err := rmFiles(); err != nil {
		return Measurement{}, err
	}
	return median(cfg.Reps, func() (Measurement, error) {
		elapsed, err := mkFiles()
		if err != nil {
			return Measurement{}, err
		}
		if err := rmFiles(); err != nil {
			return Measurement{}, err
		}
		return Measurement{Elapsed: elapsed, MBps: float64(np*creates) / elapsed.Seconds()}, nil
	})
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
