// Package bench regenerates the paper's evaluation (Section 8): the
// file-level comparisons of Figs. 11 and 12 and the striping-algorithm
// comparisons of Figs. 13 and 14, plus the ablations listed in
// DESIGN.md. cmd/dpfs-bench prints its tables.
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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/netsim"
	"dpfs/internal/obs"
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
}

// withDispatch applies the paper's issue order to a measured engine's
// options. Every measured engine of the figures and ablations goes
// through here, and here alone the paper-faithful baseline is set:
// "each compute process issues its requests one at a time" (Sec. 4.2)
// is MaxInflight 1 of the engine's one dispatch loop.
func withDispatch(opts core.Options) core.Options {
	opts.MaxInflight = 1
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

// arrayPath names the array of every case; each case has a cluster of
// its own.
const arrayPath = "/bench.dat"

// caseDir hands every cluster launch a fresh scratch directory so
// subfiles from a previous case never alias the next one's.
var caseSeq atomic.Int64

func caseDir(base string) string {
	return filepath.Join(base, fmt.Sprintf("case-%d", caseSeq.Add(1)))
}

// onCluster runs one case on a fresh cluster started from cc, in its
// own scratch directory and calibrated to the case's tile, and closes
// the cluster after.
func onCluster[T any](cfg Config, cc cluster.Config, run func(*cluster.Cluster) (T, error)) (T, error) {
	cc.Dir = caseDir(cfg.Dir)
	cc.RefBrickBytes = cfg.Tile * cfg.Tile * elemSize
	c, err := cluster.Start(cc)
	if err != nil {
		var none T
		return none, err
	}
	defer c.Close()
	return run(c)
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

// tag names the figure, class and label m is a row of.
func (m Measurement) tag(figure, class, label string) Measurement {
	m.Figure, m.Class, m.Label = figure, class, label
	return m
}

func mb(n int64) float64 { return float64(n) / (1 << 20) }

// rate is a phase that moved useful application bytes in elapsed.
func rate(useful int64, elapsed time.Duration) Measurement {
	return Measurement{Elapsed: elapsed, MBps: mb(useful) / elapsed.Seconds(), UsefulMB: mb(useful)}
}

// median runs one repetition reps times and keeps the one with the
// median elapsed time.
func median(reps int, run func() (Measurement, error)) (Measurement, error) {
	runs := make([]Measurement, 0, reps)
	for i := 0; i < reps; i++ {
		m, err := run()
		if err != nil {
			return Measurement{}, err
		}
		runs = append(runs, m)
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Elapsed < runs[j].Elapsed })
	return runs[len(runs)/2], nil
}

// together runs op for ranks 0..np-1 at once and returns how long they
// took, all of them, and the first error.
func together(np int, op func(rank int) error) (time.Duration, error) {
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, np)
	for p := 0; p < np; p++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if err := op(rank); err != nil {
				errs <- err
			}
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	return elapsed, <-errs
}

// team is np compute ranks, an engine each, all counting into one
// registry: its counters are this team's traffic only, whatever else
// the process runs.
type team struct {
	reg   *obs.Registry
	fss   []*core.FS
	files []*core.File // each rank's handle on the case's array
}

// newTeam starts np ranks' engines with opts on c and, unless path is
// empty, opens it on each.
func newTeam(c *cluster.Cluster, np int, opts core.Options, path string) (*team, error) {
	t := &team{reg: obs.NewRegistry()}
	for p := 0; p < np; p++ {
		fs, err := c.NewFS(p, opts)
		if err != nil {
			t.close()
			return nil, err
		}
		fs.SetMetrics(t.reg)
		t.fss = append(t.fss, fs)
		if path == "" {
			continue
		}
		f, err := fs.Open(path)
		if err != nil {
			t.close()
			return nil, err
		}
		t.files = append(t.files, f)
	}
	return t, nil
}

func (t *team) close() {
	for _, f := range t.files {
		f.Close()
	}
	for _, fs := range t.fss {
		fs.Close()
	}
}

// requests is how many server requests the team has issued.
func (t *team) requests() int64 { return t.reg.Counter(core.MetricRequests).Value() }

// measurement is rate with the traffic and request latencies the team
// has counted: a phase's own, when the team ran only that phase.
func (t *team) measurement(useful int64, elapsed time.Duration) Measurement {
	m := rate(useful, elapsed)
	snap := t.reg.Snapshot()
	lat := snap.Histograms[core.MetricRequestLatency]
	m.Requests = snap.Counters[core.MetricRequests]
	m.MovedMB = mb(snap.Counters[core.MetricBytesMoved])
	m.Lat50 = time.Duration(lat.P50) * time.Microsecond
	m.Lat95 = time.Duration(lat.P95) * time.Microsecond
	m.Lat99 = time.Duration(lat.P99) * time.Microsecond
	return m
}

// colBlocks is the (*, BLOCK) distribution of an n x n array over np
// ranks: rank r's slice.
func colBlocks(n int64, np int) func(rank int) stripe.Section {
	w := n / int64(np)
	return func(rank int) stripe.Section {
		return stripe.NewSection([]int64{0, int64(rank) * w}, []int64{n, w})
	}
}

// rowBlocks is the (BLOCK, *) distribution.
func rowBlocks(n int64, np int) func(rank int) stripe.Section {
	h := n / int64(np)
	return func(rank int) stripe.Section {
		return stripe.NewSection([]int64{int64(rank) * h, 0}, []int64{h, n})
	}
}

// buffers sizes each rank's buffer for its section, patterned so that a
// write stores something, and returns them with their total.
func buffers(np int, secFor func(rank int) stripe.Section) ([][]byte, int64) {
	bufs := make([][]byte, np)
	var total int64
	for p := range bufs {
		bufs[p] = make([]byte, secFor(p).Bytes(elemSize))
		for i := range bufs[p] {
			bufs[p][i] = byte(p + i)
		}
		total += int64(len(bufs[p]))
	}
	return bufs, total
}

// newArray creates the case's N x N array at arrayPath with hint and,
// when fill is set, writes it whole once, in row blocks that keep each
// write modest (setup, not measured).
func newArray(ctx context.Context, cfg Config, c *cluster.Cluster, hint core.Hint, fill bool) error {
	fs, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		return err
	}
	defer fs.Close()
	f, err := fs.Create(arrayPath, elemSize, []int64{cfg.N, cfg.N}, hint)
	if err != nil {
		return err
	}
	defer f.Close()
	if !fill {
		return nil
	}
	step := cfg.N / 8
	if step < 1 {
		step = cfg.N
	}
	for r0 := int64(0); r0 < cfg.N; r0 += step {
		sec := stripe.NewSection([]int64{r0, 0}, []int64{min(step, cfg.N-r0), cfg.N})
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

// measure has np ranks each move secFor(rank) of the case's array at
// once — write it, or read it — through fresh engines with opts,
// cfg.Reps times, and keeps the median.
func measure(ctx context.Context, cfg Config, c *cluster.Cluster, np int, opts core.Options,
	secFor func(rank int) stripe.Section, write bool) (Measurement, error) {
	return median(cfg.Reps, func() (Measurement, error) {
		t, err := newTeam(c, np, opts, arrayPath)
		if err != nil {
			return Measurement{}, err
		}
		defer t.close()
		bufs, useful := buffers(np, secFor)
		elapsed, err := together(np, func(rank int) error {
			if write {
				return t.files[rank].WriteSection(ctx, secFor(rank), bufs[rank])
			}
			return t.files[rank].ReadSection(ctx, secFor(rank), bufs[rank])
		})
		if err != nil {
			return Measurement{}, err
		}
		return t.measurement(useful, elapsed), nil
	})
}

// measureArray creates the case's array with hint — filled, unless the
// measurement is the write — and measures it.
func measureArray(ctx context.Context, cfg Config, c *cluster.Cluster, np int, hint core.Hint, opts core.Options,
	secFor func(rank int) stripe.Section, write bool) (Measurement, error) {
	if err := newArray(ctx, cfg, c, hint, !write); err != nil {
		return Measurement{}, err
	}
	return measure(ctx, cfg, c, np, opts, secFor, write)
}

// variant is one bar of a figure or row of an ablation that reads a
// filled array: its label, the array's creation hint and the measured
// engines' options.
type variant struct {
	label string
	hint  core.Hint
	opts  core.Options
}

// sweep measures each variant on a fresh cluster of io servers of one
// storage class: np ranks each read secFor(rank) of the array.
func sweep(ctx context.Context, cfg Config, figure string, class netsim.Params, io, np int,
	secFor func(rank int) stripe.Section, vs []variant) ([]Measurement, error) {
	out := make([]Measurement, 0, len(vs))
	for _, v := range vs {
		m, err := onCluster(cfg, cluster.Config{Servers: cluster.UniformClass(io, class)}, func(c *cluster.Cluster) (Measurement, error) {
			return measureArray(ctx, cfg, c, np, v.hint, v.opts, secFor, false)
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", class.Name, v.label, err)
		}
		out = append(out, m.tag(figure, class.Name, v.label))
	}
	return out, nil
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

// figureOpts are the engine options of a file-level figure's bar. The
// figures are the paper's claims about the paper's client, whose access
// unit is the whole brick, so every engine gets a data cache the size
// of the file — with one, reads fetch whole bricks, and since each
// repetition builds fresh engines nothing is ever served from it.
func (c Config) figureOpts(combine bool) core.Options {
	return withDispatch(core.Options{Combine: combine, Stagger: combine, CacheBytes: c.N * c.N * elemSize})
}

// fileLevels are the six bars of the file-level figures for np ranks.
func (c Config) fileLevels(np int) []variant {
	bar := func(label string, level stripe.Level, combine bool) variant {
		return variant{label, c.hintFor(level, np), c.figureOpts(combine)}
	}
	return []variant{
		bar("Linear", stripe.LevelLinear, false),
		bar("Combined Linear", stripe.LevelLinear, true),
		bar("Multi-dim", stripe.LevelMultidim, false),
		bar("Combined Multi-dim", stripe.LevelMultidim, true),
		bar("Array", stripe.LevelArray, false),
		bar("Combined Array", stripe.LevelArray, true),
	}
}

// FileLevels regenerates one storage class of Fig. 11 (np=8, io=4) or
// Fig. 12 (np=16, io=8): the six bars Linear / Combined Linear /
// Multi-dim / Combined Multi-dim / Array / Combined Array under a
// (*, BLOCK) read of an N x N array.
func FileLevels(ctx context.Context, cfg Config, figure string, np, io int, class netsim.Params) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	return sweep(ctx, cfg, figure, class, io, np, colBlocks(cfg.N, np), cfg.fileLevels(np))
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
	m, err := onCluster(cfg, cluster.Config{Servers: cluster.Mixed(io)}, func(c *cluster.Cluster) (Measurement, error) {
		var placement stripe.Placement = stripe.RoundRobin{}
		if algo == "greedy" {
			classes := cluster.Mixed(io)
			params := make([]netsim.Params, io)
			for i := range classes {
				params[i] = classes[i].Class
			}
			placement = stripe.Greedy{Perf: netsim.NormalizedPerf(params, cfg.Tile*cfg.Tile*elemSize)}
		}
		hint := core.Hint{
			Level:     stripe.LevelMultidim,
			Tile:      []int64{cfg.Tile, cfg.Tile},
			Placement: placement,
			Servers:   c.ServerNames(), // launch order: first half class 1, second half class 3
		}
		opts := withDispatch(core.Options{Combine: ac.Combine, Stagger: ac.Combine})
		return measureArray(ctx, cfg, c, np, hint, opts, rowBlocks(cfg.N, np), ac.Write)
	})
	if err != nil {
		return Measurement{}, err
	}
	m.Class = algo
	m.Label = ac.Label
	return m, nil
}

// Figure dispatches a figure by number.
func Figure(ctx context.Context, cfg Config, fig int) ([]Measurement, error) {
	switch fig {
	case 11, 12:
		np, io := 8, 4
		if fig == 12 {
			np, io = 16, 8
		}
		var out []Measurement
		for _, class := range []netsim.Params{netsim.Class1(), netsim.Class2(), netsim.Class3()} {
			ms, err := FileLevels(ctx, cfg, fmt.Sprintf("Fig%d", fig), np, io, class)
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
