// Command benchmark is the one benchmark of this repository (see
// README.md and ../BENCHMARK.json). It starts an in-process DPFS cluster
// — four I/O servers and one metadata server on loopback TCP — and
// drives it through the public dpfs.Client / File API from two
// closed-loop client goroutines, on four workloads that stress
// different layers. Every run has the same five timed phases (write,
// read, reread through the caches, open, create+remove churn), checks
// the bytes it reads, and prints every metric by name with its unit.
//
// An end-to-end pass (-trace 0) measures with tracing off; the traced
// pass (-trace 1) runs one client for a fixed number of operations,
// records a span around each public call, replays that operation's
// steps through each layer's public functions, and reports per-layer
// metrics. Without -trace both passes run. The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}; the
// exit status is non-zero when any operation failed or returned wrong
// bytes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// defaultClients is the number of closed-loop compute processes of the
// end-to-end pass: compute processes wait for their I/O, so each issues
// its next call only when the previous one returned.
const defaultClients = 2

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the run
// length and the declared metrics, so that what is printed and what is
// declared cannot drift apart.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds <= 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: run_seconds, end_to_end and per_layer are required", path)
	}
	return &s, nil
}

// config is one invocation's settings.
type config struct {
	spec     *benchSpec
	workload string
	seed     int64
	seconds  float64
	trace    int // 0: end-to-end pass only; 1: traced pass only; -1: both
	clients  int
	quick    bool
	outDir   string
}

func main() {
	var (
		cfg       config
		specPath  string
		selfcheck bool
	)
	flag.StringVar(&specPath, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "scratch directory (cluster roots, WAL, traces)")
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of positions, file names and file contents")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "seconds one end-to-end pass measures (default: run_seconds of the spec)")
	flag.IntVar(&cfg.trace, "trace", -1, "0: end-to-end pass only, 1: traced per-layer pass only (default: both)")
	flag.IntVar(&cfg.clients, "clients", defaultClients, "closed-loop client goroutines of the end-to-end pass")
	flag.BoolVar(&cfg.quick, "quick", false, "one round of sub-second phases and a tenth of the traced operations; numbers are not comparable")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the end-to-end pass twice and fail if a metric differs by more than its bound")
	flag.Parse()

	spec, err := loadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	cfg.spec = spec
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if cfg.quick {
		cfg.seconds = 0.5
	}
	// More client goroutines than processors measures the scheduler,
	// not the file system.
	if limit := max(runtime.NumCPU(), defaultClients); cfg.clients < 1 || cfg.clients > limit {
		fatal(fmt.Errorf("-clients %d: want 1..%d (nproc)", cfg.clients, limit))
	}
	var selected []*workload
	if cfg.workload == "all" {
		selected = workloads
	} else if w := workloadByName(cfg.workload); w != nil {
		selected = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}

	printHeader(&cfg)
	ok := true
	for _, w := range selected {
		good := false
		if selfcheck {
			good, err = selfCheck(&cfg, w)
		} else {
			var res result
			res, err = runWorkload(&cfg, w)
			good = res.Correct
		}
		if err != nil {
			fatal(err)
		}
		ok = ok && good
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printHeader records where and how the numbers were taken.
func printHeader(cfg *config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	h := map[string]any{
		"benchmark":  "dpfs",
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"clients":    cfg.clients,
		"loop":       "closed",
		"comparable": !cfg.quick,
	}
	line, _ := json.Marshal(h)
	fmt.Printf("%s\n", line)
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs the selected passes over one workload, prints the
// metric rows and the result line, and reports whether every operation
// succeeded with the right bytes.
func runWorkload(cfg *config, w *workload) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	var (
		e2e        *e2eResult
		unmeasured int64
	)
	if cfg.trace != 1 {
		var err error
		if e2e, err = runE2E(cfg, w, cfg.seconds); err != nil {
			return res, err
		}
		res.Attempted, res.Failed = e2e.attempted, e2e.failed
		unmeasured += emit(w, cfg.spec.EndToEnd, e2e.metrics, &res, e2e)
	}
	if cfg.trace != 0 {
		tr, err := runTraced(cfg, w, e2e)
		if err != nil {
			return res, err
		}
		// The traced pass's tally includes the untraced pass it rests on.
		res.Attempted, res.Failed = tr.attempted, tr.failed
		unmeasured += emit(w, cfg.spec.PerLayer, tr.metrics, &res, nil)
	}
	res.Failed += unmeasured
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Printf("%s\n", line)
	return res, nil
}

// sampleKey names the phase whose sample count backs an end-to-end
// timing metric.
var sampleKey = map[string]string{
	"write_mbps": "write", "write_p50_us": "write",
	"read_mbps": "read", "read_p50_us": "read", "read_moved_per_useful": "read",
	"reread_mbps": "reread", "open_p50_us": "open",
}

// emit prints one row per declared metric and adds it to the result;
// an end-to-end timing also shows its sample count and its value in
// each round (setup_s: in each set-up). A declared metric the pass did not produce is an error
// in the benchmark itself; emit returns how many there were, and the
// caller counts each as a failed operation.
func emit(w *workload, declared []metricSpec, got map[string]float64, res *result, e2e *e2eResult) (unmeasured int64) {
	for _, ms := range declared {
		v, ok := got[ms.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "FAIL %s: metric %s was not measured\n", w.name, ms.Name)
			unmeasured++
			continue
		}
		res.Metrics[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
		note := ""
		if e2e != nil {
			if n, ok := e2e.samples[sampleKey[ms.Name]]; ok {
				note = fmt.Sprintf("  n=%d", n)
			}
			if vs, ok := e2e.perRound[ms.Name]; ok {
				note += fmt.Sprintf("  each %.4g", vs)
			}
		}
		fmt.Printf("%-16s %-28s %14.4f %-6s%s\n", w.name, ms.Name, v, ms.Unit, note)
	}
	return unmeasured
}

// exactMetrics are the end-to-end metrics that are ratios of counts: two
// passes over the same build must give the same value to the last bit.
// BENCHMARK.json gives them the smallest share a later change may worsen
// them by, 0.1%.
var exactMetrics = map[string]bool{"read_moved_per_useful": true}

// selfCheck runs the end-to-end pass twice on the same build and
// reports every metric whose two values differ by more than its bound.
// The bound is BENCHMARK.json's, the tighter one the workload states
// for the metric, or zero for a count.
func selfCheck(cfg *config, w *workload) (bool, error) {
	var runs [2]*e2eResult
	for i := range runs {
		var err error
		if runs[i], err = runE2E(cfg, w, cfg.seconds); err != nil {
			return false, err
		}
	}
	ok := runs[0].failed == 0 && runs[1].failed == 0
	for _, ms := range cfg.spec.EndToEnd {
		bound := ms.Bound
		if b, tighter := w.tight[ms.Name]; tighter {
			bound = b
		}
		if exactMetrics[ms.Name] {
			bound = 0
		}
		a, b := runs[0].metrics[ms.Name], runs[1].metrics[ms.Name]
		diff := 0.0
		if a != b {
			diff = math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
		}
		verdict := "ok"
		if diff > bound {
			verdict = "DIFFERS"
			ok = false
		}
		fmt.Printf("%-16s %-28s %14.4f %14.4f  diff %6.2f%%  bound %5.1f%%  %s\n",
			w.name, ms.Name, a, b, 100*diff, 100*bound, verdict)
	}
	return ok, nil
}
