// Package bench regenerates the paper's evaluation (Section 8): the
// file-level comparisons of Figs. 11 and 12 and the striping-algorithm
// comparisons of Figs. 13 and 14, plus the ablations listed in
// DESIGN.md. The same harness backs cmd/dpfs-bench (tables on stdout)
// and the root bench_test.go (go test -bench).
//
// Workload shape, exactly as in the paper: a square 2-d float64 array
// is striped over the I/O nodes; NP compute-node goroutines access it
// in HPF patterns ((*, BLOCK) for the file-level figures, (BLOCK, *)
// for the striping-algorithm figures). Reported bandwidth is aggregate
// useful application bytes divided by wall time, in MB/s. Absolute
// numbers depend on the netsim calibration; the paper's claims are
// about the ratios.
package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/fault"
	"dpfs/internal/netsim"
	"dpfs/internal/obs"
	"dpfs/internal/server"
	"dpfs/internal/stripe"
)

// Config scales the experiments.
type Config struct {
	// N is the array edge (the paper used 32768; the default 512 keeps
	// a figure under a few seconds while preserving every ratio).
	N int64
	// Tile is the multidim tile edge (paper: 256).
	Tile int64
	// Dir is a scratch directory for server roots.
	Dir string
	// Reps repeats each measurement and reports the median (default
	// 3), damping host scheduling noise.
	Reps int
	// Fault, when non-nil, injects the configured fault schedule into
	// every measured engine's server connections (setup/fill traffic
	// stays fault-free). Pair it with a Retry policy that can absorb
	// the schedule, or measurements will error out.
	Fault *fault.Injector
	// Retry tunes the measured engines' per-RPC timeout/retry/breaker
	// behavior; the zero value uses the server package defaults.
	Retry server.RetryPolicy
	// CacheBytes, when > 0, gives every measured engine a client data
	// cache with that byte budget (core.Options.CacheBytes).
	CacheBytes int64
	// MetaTTL, when > 0, gives every measured engine a metadata cache
	// with that TTL (core.Options.MetaTTL).
	MetaTTL time.Duration
	// Readahead is the sequential prefetch depth in bricks
	// (core.Options.Readahead); it needs CacheBytes > 0 to take effect.
	Readahead int
}

// withDispatch applies the paper's issue order, the cache settings and
// any fault schedule to a measurement's engine options. Every measured
// engine of the figures and ablations goes through here, and here alone
// the paper-faithful baseline is set: "each compute process issues its
// requests one at a time" (Sec. 4.2) is MaxInflight 1 of the engine's
// one dispatch loop.
func (c Config) withDispatch(opts core.Options) core.Options {
	opts.MaxInflight = 1
	opts.Retry = c.Retry
	opts.CacheBytes = c.CacheBytes
	opts.MetaTTL = c.MetaTTL
	opts.Readahead = c.Readahead
	if c.Fault != nil {
		opts.Dial = c.Fault.DialContext
	}
	return opts
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.N == 0 {
		c.N = 512
	}
	if c.Tile == 0 {
		c.Tile = c.N / 8
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	return c
}

const elemSize = 8 // float64 array elements, as in Sec. 8

// caseDir hands every cluster launch a fresh scratch directory so
// subfiles from a previous case never alias the next one's.
var caseSeq atomic.Int64

func caseDir(base string) string {
	return filepath.Join(base, fmt.Sprintf("case-%d", caseSeq.Add(1)))
}

// Measurement is one bar of a figure.
type Measurement struct {
	Figure   string
	Class    string // storage class or algorithm variant
	Label    string // e.g. "Combined Multi-dim", "Greedy Read"
	MBps     float64
	Elapsed  time.Duration
	Requests int64
	MovedMB  float64 // bytes transferred (incl. discarded parts of whole bricks)
	UsefulMB float64
	// Per-request latency percentiles across all ranks of the phase,
	// from the ranks' shared metric registry.
	Lat50, Lat95, Lat99 time.Duration
}

// String renders one row.
func (m Measurement) String() string {
	return fmt.Sprintf("%-8s %-8s %-22s %8.2f MB/s  %10v  %6d reqs  %8.2f MB moved  p50/p95/p99 %v/%v/%v",
		m.Figure, m.Class, m.Label, m.MBps, m.Elapsed.Round(time.Microsecond), m.Requests, m.MovedMB,
		m.Lat50.Round(time.Microsecond), m.Lat95.Round(time.Microsecond), m.Lat99.Round(time.Microsecond))
}

// LevelCase is one bar group of Figs. 11/12.
type LevelCase struct {
	Label   string
	Level   stripe.Level
	Combine bool
}

// LevelCases lists the six bars of the file-level figures.
func LevelCases() []LevelCase {
	return []LevelCase{
		{"Linear", stripe.LevelLinear, false},
		{"Combined Linear", stripe.LevelLinear, true},
		{"Multi-dim", stripe.LevelMultidim, false},
		{"Combined Multi-dim", stripe.LevelMultidim, true},
		{"Array", stripe.LevelArray, false},
		{"Combined Array", stripe.LevelArray, true},
	}
}

// hintFor builds the creation hint for a level under the (*, BLOCK)
// workload of Figs. 11/12.
func (c Config) hintFor(level stripe.Level, np int) core.Hint {
	switch level {
	case stripe.LevelLinear:
		return core.Hint{Level: level, BrickBytes: c.Tile * c.Tile * elemSize}
	case stripe.LevelMultidim:
		return core.Hint{Level: level, Tile: []int64{c.Tile, c.Tile}}
	default: // array, chunked (*, BLOCK) over np processors
		return core.Hint{Level: level,
			Pattern: []stripe.Dist{stripe.DistStar, stripe.DistBlock},
			Grid:    []int64{1, int64(np)}}
	}
}

// colSection is rank r's (*, BLOCK) slice.
func colSection(n int64, np, rank int) stripe.Section {
	w := n / int64(np)
	return stripe.NewSection([]int64{0, int64(rank) * w}, []int64{n, w})
}

// rowSection is rank r's (BLOCK, *) slice.
func rowSection(n int64, np, rank int) stripe.Section {
	h := n / int64(np)
	return stripe.NewSection([]int64{int64(rank) * h, 0}, []int64{h, n})
}

// measure repeats measureOnce and keeps the median elapsed time.
func measure(ctx context.Context, cfg Config, c *cluster.Cluster, np int, opts core.Options,
	path string, secFor func(rank int) stripe.Section, write bool) (Measurement, error) {
	runs := make([]Measurement, 0, cfg.Reps)
	for i := 0; i < cfg.Reps; i++ {
		m, err := measureOnce(ctx, c, np, opts, path, secFor, write)
		if err != nil {
			return Measurement{}, err
		}
		runs = append(runs, m)
	}
	sortMeasurements(runs)
	return runs[len(runs)/2], nil
}

func sortMeasurements(ms []Measurement) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].Elapsed < ms[j-1].Elapsed; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

// measureOnce runs np compute goroutines, each performing one section
// access, and reports aggregate useful bandwidth.
func measureOnce(ctx context.Context, c *cluster.Cluster, np int, opts core.Options,
	path string, secFor func(rank int) stripe.Section, write bool) (Measurement, error) {

	// All ranks of this phase share one registry, so the counters below
	// are this run's traffic only: concurrent measurements elsewhere in
	// the process no longer bleed in (unlike the package-wide
	// core.ReadStats aggregate).
	reg := obs.NewRegistry()
	fss := make([]*core.FS, np)
	files := make([]*core.File, np)
	bufs := make([][]byte, np)
	var useful int64
	for p := 0; p < np; p++ {
		fs, err := c.NewFS(p, opts)
		if err != nil {
			return Measurement{}, err
		}
		fs.SetMetrics(reg)
		fss[p] = fs
		f, err := fs.Open(path)
		if err != nil {
			return Measurement{}, err
		}
		files[p] = f
		sec := secFor(p)
		bufs[p] = make([]byte, sec.Bytes(f.Geometry().ElemSize))
		if write {
			for i := range bufs[p] {
				bufs[p][i] = byte(p + i)
			}
		}
		useful += int64(len(bufs[p]))
	}
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

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, np)
	for p := 0; p < np; p++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var err error
			if write {
				err = files[rank].WriteSection(ctx, secFor(rank), bufs[rank])
			} else {
				err = files[rank].ReadSection(ctx, secFor(rank), bufs[rank])
			}
			if err != nil {
				errs <- err
			}
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return Measurement{}, err
	}

	snap := reg.Snapshot()
	lat := snap.Histograms[core.MetricRequestLatency]
	return Measurement{
		Elapsed:  elapsed,
		MBps:     float64(useful) / (1 << 20) / elapsed.Seconds(),
		Requests: snap.Counters[core.MetricRequests],
		MovedMB:  float64(snap.Counters[core.MetricBytesMoved]) / (1 << 20),
		UsefulMB: float64(useful) / (1 << 20),
		Lat50:    time.Duration(lat.P50) * time.Microsecond,
		Lat95:    time.Duration(lat.P95) * time.Microsecond,
		Lat99:    time.Duration(lat.P99) * time.Microsecond,
	}, nil
}

// fill writes the whole array once (setup, not measured) using a
// combined writer.
func fill(ctx context.Context, c *cluster.Cluster, path string, dims []int64) error {
	fs, err := c.NewFS(0, core.Options{Combine: true, Stagger: true})
	if err != nil {
		return err
	}
	defer fs.Close()
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// Row blocks keep per-write buffers modest.
	rows := dims[0]
	step := rows / 8
	if step < 1 {
		step = rows
	}
	for r0 := int64(0); r0 < rows; r0 += step {
		n := step
		if rem := rows - r0; rem < n {
			n = rem
		}
		sec := stripe.NewSection([]int64{r0, 0}, []int64{n, dims[1]})
		buf := make([]byte, sec.Bytes(elemSize))
		for i := range buf {
			buf[i] = byte(i)
		}
		if err := f.WriteSection(ctx, sec, buf); err != nil {
			return err
		}
	}
	return nil
}

// FileLevels regenerates one storage class of Fig. 11 (np=8, io=4) or
// Fig. 12 (np=16, io=8): the six bars Linear / Combined Linear /
// Multi-dim / Combined Multi-dim / Array / Combined Array under a
// (*, BLOCK) read of an N x N array. The figures are the paper's
// claims about the paper's client, whose access unit is the whole
// brick, so unless cfg sizes a cache itself every engine gets one the
// size of the file — with one, reads fetch whole bricks, and since each
// repetition builds fresh engines nothing is ever served from it.
func FileLevels(ctx context.Context, cfg Config, figure string, np, io int, class netsim.Params) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	var out []Measurement
	for _, lc := range LevelCases() {
		m, err := RunLevelCase(ctx, cfg, np, io, class, lc)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", class.Name, lc.Label, err)
		}
		m.Figure = figure
		out = append(out, m)
	}
	return out, nil
}

// RunLevelCase builds a fresh uniform-class cluster and measures one
// bar of a file-level figure.
func RunLevelCase(ctx context.Context, cfg Config, np, io int, class netsim.Params, lc LevelCase) (Measurement, error) {
	return runLevelCase(ctx, cfg, np, io, class, lc, true)
}

// runLevelCase is RunLevelCase with the access unit open: wholeBricks
// is the figures' (see FileLevels); without it the engines run as cfg
// has them, which is how the traffic test measures the same access
// through the engine's own default.
func runLevelCase(ctx context.Context, cfg Config, np, io int, class netsim.Params, lc LevelCase, wholeBricks bool) (Measurement, error) {
	cfg = cfg.WithDefaults()
	c, err := cluster.Start(cluster.Config{
		Servers:       cluster.UniformClass(io, class),
		Dir:           caseDir(cfg.Dir),
		RefBrickBytes: cfg.Tile * cfg.Tile * elemSize,
	})
	if err != nil {
		return Measurement{}, err
	}
	defer c.Close()
	dims := []int64{cfg.N, cfg.N}
	path := "/bench.dat"
	fs, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		return Measurement{}, err
	}
	f, err := fs.Create(path, elemSize, dims, cfg.hintFor(lc.Level, np))
	if err != nil {
		fs.Close()
		return Measurement{}, err
	}
	f.Close()
	fs.Close()
	if err := fill(ctx, c, path, dims); err != nil {
		return Measurement{}, err
	}
	opts := cfg.withDispatch(core.Options{Combine: lc.Combine, Stagger: lc.Combine})
	if wholeBricks && opts.CacheBytes == 0 {
		opts.CacheBytes = cfg.N * cfg.N * elemSize
	}
	m, err := measure(ctx, cfg, c, np, opts, path,
		func(rank int) stripe.Section { return colSection(cfg.N, np, rank) }, false)
	if err != nil {
		return Measurement{}, err
	}
	m.Class = class.Name
	m.Label = lc.Label
	return m, nil
}

// AlgoCase is one bar group of Figs. 13/14.
type AlgoCase struct {
	Label   string
	Write   bool
	Combine bool
}

// AlgoCases lists the four bars of the striping-algorithm figures.
func AlgoCases() []AlgoCase {
	return []AlgoCase{
		{"Write", true, false},
		{"Combined Write", true, true},
		{"Read", false, false},
		{"Combined Read", false, true},
	}
}

// StripingAlgorithms regenerates Fig. 13 (np=8, io=8) or Fig. 14
// (np=16, io=16): Write / Combined Write / Read / Combined Read
// bandwidth for round-robin vs greedy placement on storage that is
// half class 1 and half class 3.
func StripingAlgorithms(ctx context.Context, cfg Config, figure string, np, io int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	var out []Measurement
	for _, algo := range []string{"round-robin", "greedy"} {
		for _, ac := range AlgoCases() {
			m, err := RunAlgoCase(ctx, cfg, algo, ac, np, io)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", algo, ac.Label, err)
			}
			m.Figure = figure
			out = append(out, m)
		}
	}
	return out, nil
}

// RunAlgoCase builds a fresh half-class-1 half-class-3 cluster and
// measures one bar of a striping-algorithm figure.
func RunAlgoCase(ctx context.Context, cfg Config, algo string, ac AlgoCase, np, io int) (Measurement, error) {
	cfg = cfg.WithDefaults()
	c, err := cluster.Start(cluster.Config{
		Servers:       cluster.Mixed(io),
		Dir:           caseDir(cfg.Dir),
		RefBrickBytes: cfg.Tile * cfg.Tile * elemSize,
	})
	if err != nil {
		return Measurement{}, err
	}
	m, err := runAlgoCase(ctx, cfg, c, algo, ac, np, io)
	c.Close()
	if err != nil {
		return Measurement{}, err
	}
	m.Class = algo
	m.Label = ac.Label
	return m, nil
}

func runAlgoCase(ctx context.Context, cfg Config, c *cluster.Cluster, algo string, ac AlgoCase, np, io int) (Measurement, error) {
	dims := []int64{cfg.N, cfg.N}
	path := "/bench.dat"

	var placement stripe.Placement = stripe.RoundRobin{}
	if algo == "greedy" {
		classes := cluster.Mixed(io)
		params := make([]netsim.Params, io)
		for i := range classes {
			params[i] = classes[i].Class
		}
		placement = stripe.Greedy{Perf: netsim.NormalizedPerf(params, cfg.Tile*cfg.Tile*elemSize)}
	}

	fs, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		return Measurement{}, err
	}
	hint := core.Hint{
		Level:     stripe.LevelMultidim,
		Tile:      []int64{cfg.Tile, cfg.Tile},
		Placement: placement,
		Servers:   c.ServerNames(), // launch order: first half class 1, second half class 3
	}
	f, err := fs.Create(path, elemSize, dims, hint)
	if err != nil {
		fs.Close()
		return Measurement{}, err
	}
	f.Close()
	fs.Close()

	if !ac.Write {
		if err := fill(ctx, c, path, dims); err != nil {
			return Measurement{}, err
		}
	}
	opts := cfg.withDispatch(core.Options{Combine: ac.Combine, Stagger: ac.Combine})
	return measure(ctx, cfg, c, np, opts, path,
		func(rank int) stripe.Section { return rowSection(cfg.N, np, rank) }, ac.Write)
}

// Figure dispatches a figure by number.
func Figure(ctx context.Context, cfg Config, fig int) ([]Measurement, error) {
	switch fig {
	case 11:
		var out []Measurement
		for _, class := range []netsim.Params{netsim.Class1(), netsim.Class2(), netsim.Class3()} {
			ms, err := FileLevels(ctx, cfg, "Fig11", 8, 4, class)
			if err != nil {
				return nil, err
			}
			out = append(out, ms...)
		}
		return out, nil
	case 12:
		var out []Measurement
		for _, class := range []netsim.Params{netsim.Class1(), netsim.Class2(), netsim.Class3()} {
			ms, err := FileLevels(ctx, cfg, "Fig12", 16, 8, class)
			if err != nil {
				return nil, err
			}
			out = append(out, ms...)
		}
		return out, nil
	case 13:
		return StripingAlgorithms(ctx, cfg, "Fig13", 8, 8)
	case 14:
		return StripingAlgorithms(ctx, cfg, "Fig14", 16, 16)
	}
	return nil, fmt.Errorf("bench: no figure %d in the paper's evaluation", fig)
}
