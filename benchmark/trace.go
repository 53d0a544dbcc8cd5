package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dpfs"
)

// span is one timed step of the traced run: a public call (the root of
// an operation) or one of the layer steps replayed after it with the
// same inputs.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // the operation's root span; 0 on a root
	Op       int     `json:"op"`     // spans of one operation share it
	Phase    string  `json:"phase"`
	Layer    string  `json:"layer"`
	Name     string  `json:"name"`
	StartUS  float64 `json:"start_us"` // since the traced pass began
	EndUS    float64 `json:"end_us"`
	Replayed bool    `json:"replayed,omitempty"`
}

// tracer is the benchmark's own in-memory tracer. Spans stay in memory
// until the pass ends; durations are also kept per phase and span name,
// which is what the per-layer medians are taken over.
type tracer struct {
	t0    time.Time
	spans []span
	durs  map[string][]time.Duration // "phase/name" -> durations
	phase string
	op    int
	root  int

	// prime runs every timed step primeRuns times untimed first. The
	// traced pass stops between steps to read registries, so each step
	// would start on parked goroutines and sleeping threads and measure
	// the sandbox's wake-up latency; primed, it measures the step as the
	// closed loop of the end-to-end pass runs it. Off where the servers
	// sleep on the netsim model: there a step costs tens of milliseconds
	// either way and priming would only multiply the length of the pass.
	prime bool
}

// primeRuns is how many untimed runs precede a timed step. Measured on
// smallio-native: a 4 KiB read takes 73 us after one priming run, 59 us
// after three and 33 us after eight, which is what a closed loop sees.
const primeRuns = 8

func newTracer(prime bool) *tracer {
	return &tracer{t0: time.Now(), durs: map[string][]time.Duration{}, prime: prime}
}

func (t *tracer) add(layer, name string, began time.Time, dur time.Duration, parent int, replayed bool) int {
	id := len(t.spans) + 1
	start := float64(began.Sub(t.t0).Nanoseconds()) / 1e3
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: t.op, Phase: t.phase, Layer: layer, Name: name,
		StartUS: start, EndUS: start + float64(dur.Nanoseconds())/1e3, Replayed: replayed,
	})
	key := t.phase + "/" + name
	t.durs[key] = append(t.durs[key], dur)
	return id
}

// public records the span of a public call that just returned and
// makes it the root of a new operation.
func (t *tracer) public(name string, began time.Time, dur time.Duration) {
	t.op++
	t.root = t.add("core", name, began, dur, 0, false)
}

// replay times one replayed layer step under the current operation,
// primed when the tracer primes. The step must be repeatable.
func (t *tracer) replay(layer, name string, fn func() error) (time.Duration, error) {
	if t.prime {
		for k := 0; k < primeRuns; k++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
	}
	return t.replayOnce(layer, name, fn)
}

// replayOnce times a replayed step that cannot be run twice.
func (t *tracer) replayOnce(layer, name string, fn func() error) (time.Duration, error) {
	began := time.Now()
	err := fn()
	dur := time.Since(began)
	t.add(layer, name, began, dur, t.root, true)
	return dur, err
}

// med is the median duration of a span name in a phase, microseconds.
func (t *tracer) med(phase, name string) float64 {
	return medianUS(t.durs[phase+"/"+name])
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapAllocs returns the process's cumulative heap allocation count.
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMiB reads the process's peak resident set from
// /proc/self/status (0 where that file does not exist).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// tracedResult is one traced pass over a workload.
type tracedResult struct {
	metrics           map[string]float64
	attempted, failed int64
}

// phaseCounts accumulates what the public calls of one phase did, as
// differences of registry readings taken around each call.
type phaseCounts struct {
	ops                 int
	reg                 counters
	engine              engineCounters // cache counters of the engine the phase uses
	stats               dpfs.Stats     // traffic counters of that engine
	wall                time.Duration  // total time inside the public calls
	mallocs, allocBytes uint64
}

// tracedPass is the state of one traced pass.
type tracedPass struct {
	r      *run
	c      *benchClient
	probe  *layerProbe
	tr     *tracer
	counts map[string]*phaseCounts // by span name of the public call
	selfs  map[int][]time.Duration // phase -> op minus the steps under the engine
	replay struct {
		bricks, requests int
		codecBytes       int64
		codecAllocs      []float64
	}
	ref struct { // from the untraced reads
		lats             []time.Duration
		allocs, allocKiB float64
	}
}

// observe runs one public call between two registry readings, adds the
// differences to the call's counts and records the call's span. A call
// that can be repeated is primed like a replayed step (see
// tracer.prime); the priming call is inside the readings, because
// reading registries between it and the timed call would undo it, and
// counts as an operation of its own.
func (tp *tracedPass) observe(name string, engine *dpfs.Client, repeatable bool, call func() (time.Time, time.Duration, error)) (time.Duration, error) {
	pc := tp.counts[name]
	if pc == nil {
		pc = &phaseCounts{}
		tp.counts[name] = pc
	}
	regBefore, engBefore, statsBefore := tp.r.tb.readCounters(), readEngineCounters(engine), engine.Stats()
	if repeatable && tp.tr.prime {
		for k := 0; k < primeRuns; k++ {
			tp.r.attempt(1)
			_, dur, err := call()
			if err != nil {
				return dur, err
			}
			pc.ops++
			pc.wall += dur
		}
	}
	began, dur, err := call()
	pc.reg.addDelta(regBefore, tp.r.tb.readCounters())
	pc.engine.addDelta(engBefore, readEngineCounters(engine))
	st := engine.Stats()
	pc.stats.Requests += st.Requests - statsBefore.Requests
	pc.stats.BytesTransferred += st.BytesTransferred - statsBefore.BytesTransferred
	pc.stats.BytesUseful += st.BytesUseful - statsBefore.BytesUseful
	pc.ops++
	pc.wall += dur
	tp.r.attempt(1)
	if err != nil {
		return dur, err
	}
	tp.tr.public(name, began, dur)
	return dur, nil
}

// dataPhase runs n traced data ops of a phase, each followed by the
// replay of its steps through the layers under the engine.
func (tp *tracedPass) dataPhase(phase, n int) {
	r, c, w := tp.r, tp.c, tp.r.w
	name := "core." + phaseNames[phase]
	engine := c.plain
	if phase == phaseReread {
		engine = c.cached
	}
	rng := r.phaseRNG(c, phase)
	first := c.plainFileFor(r, c.files[0])
	if first == nil {
		return
	}
	brick := make([]byte, first.Geometry().SlotBytes())
	for i := 0; i < n; i++ {
		a := r.pickAccess(c, phase, rng)
		// Which of the reference read and the traced read goes first
		// alternates, so neither always finds the placement warmer.
		if phase == phaseRead && i%2 == 0 {
			tp.referenceRead(a)
		}
		// A reread is not primed: eight repeats of one placement would
		// all hit and hide what the cache does with the workload.
		dur, err := tp.observe(name, engine, phase != phaseReread, func() (time.Time, time.Duration, error) {
			s, err := r.dataOp(c, phase, a)
			return s.began, s.lat, err
		})
		if phase == phaseRead && i%2 == 1 {
			tp.referenceRead(a)
		}
		if err != nil {
			r.fail(phaseNames[phase]+"(traced)", i, err)
			continue
		}
		if phase == phaseReread {
			// The engine served (or filled) whole bricks from its cache;
			// the same work on the probe's cache is the cache layer's cost.
			tp.probe.replayCache(tp.tr, brick, i, w.cache)
			continue
		}
		f := c.plainFileFor(r, a.df)
		if f == nil {
			continue
		}
		rep, err := tp.probe.replayData(tp.tr, f, c.rank, a.sec, w.byteAPI, a.write, a.buf)
		if err == nil {
			err = tp.probe.ping(tp.tr)
		}
		if err != nil {
			r.fail(phaseNames[phase]+"(replay)", i, err)
			continue
		}
		tp.selfs[phase] = append(tp.selfs[phase], max(0, dur-rep.under))
		tp.replay.codecAllocs = append(tp.replay.codecAllocs, rep.codecAllocs)
		tp.replay.codecBytes += rep.codecBytes
		if phase == phaseRead {
			tp.replay.bricks, tp.replay.requests = rep.bricks, rep.requests
		}
	}
}

// plainFileFor returns an open handle on df for the replays: the one
// the client keeps, or a fresh one on a populated catalog (nil, with
// the failure tallied, when it cannot be opened).
func (c *benchClient) plainFileFor(r *run, df *dataFile) *dpfs.File {
	if c.plainFile != nil {
		return c.plainFile
	}
	f, err := c.plain.Open(df.path)
	if err != nil {
		r.fail("replay(open)", 0, err)
		return nil
	}
	return f
}

// referenceRead performs a read the way observe is about to — primed
// when the tracer primes — with no registry reading, span or replay
// around it, and keeps the latency. Every traced read has a reference
// read of the same placement next to it, so both see the same state of
// the sandbox; the difference of their medians is
// core.trace_overhead_pct.
func (tp *tracedPass) referenceRead(a access) {
	r, c := tp.r, tp.c
	reps := 1
	if tp.tr.prime {
		reps += primeRuns
	}
	var (
		s   sample
		err error
	)
	for k := 0; k < reps && err == nil; k++ {
		r.attempt(1)
		s, err = r.dataOp(c, phaseRead, a)
	}
	if err != nil {
		r.fail("read(untraced reference)", len(tp.ref.lats), err)
		return
	}
	tp.ref.lats = append(tp.ref.lats, s.lat)
}

// countAllocs runs n read ops back to back with nothing around them and
// divides the heap allocations between the loop's ends by n:
// core.allocs_per_op and core.alloc_kb_per_op (process-wide: client,
// servers and the loop itself share the process).
func (tp *tracedPass) countAllocs(n int) {
	r, c := tp.r, tp.c
	rng := rand.New(rand.NewSource(r.seed))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		r.attempt(1)
		if _, err := r.dataOp(c, phaseRead, r.pickAccess(c, phaseRead, rng)); err != nil {
			r.fail("read(allocation count)", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	tp.ref.allocs = float64(after.Mallocs-before.Mallocs) / float64(n)
	tp.ref.allocKiB = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n)
}

// warmCache reads every placement of every file of the client once
// through the cached engine, so that the traced reread phase sees the
// cache in its steady state (full where the files fit, churning where
// they do not) and not 200 cold misses.
func (tp *tracedPass) warmCache() {
	r, c, w := tp.r, tp.c, tp.r.w
	for _, df := range c.files {
		for pos := 0; pos < w.positions; pos++ {
			r.attempt(1)
			a := access{df: df, sec: w.section(pos), buf: c.buf}
			if _, err := r.dataOp(c, phaseReread, a); err != nil {
				r.fail("reread(cache warm-up)", pos, err)
			}
		}
	}
}

// openPhase runs n traced opens, each followed by the replay of the
// catalog steps behind it.
func (tp *tracedPass) openPhase(n int) {
	r, c := tp.r, tp.c
	rng := r.phaseRNG(c, phaseOpen)
	for i := 0; i < n; i++ {
		df := r.all[rng.Intn(len(r.all))]
		_, err := tp.observe("core.open", c.plain, true, func() (time.Time, time.Duration, error) {
			s, err := r.openFile(c, df)
			return s.began, s.lat, err
		})
		if err == nil {
			err = tp.probe.replayOpen(tp.tr, df.path)
		}
		if err != nil {
			r.fail("open(traced)", i, err)
		}
	}
}

// churnPhase runs n traced create+remove cycles, each followed by the
// replay of the catalog steps behind a create and a remove.
func (tp *tracedPass) churnPhase(n int) {
	r, c := tp.r, tp.c
	rng := r.phaseRNG(c, phaseChurn)
	like := c.plainFileFor(r, c.files[0])
	for i := 0; i < n; i++ {
		path := churnPath(c, rng)
		_, err := tp.observe("core.create", c.plain, false, func() (time.Time, time.Duration, error) { return r.createOp(c, path) })
		if err == nil {
			_, err = tp.observe("core.remove", c.plain, false, func() (time.Time, time.Duration, error) { return r.removeOp(c, path) })
		}
		if err == nil && like != nil {
			err = tp.probe.replayCreate(tp.tr, like, path+"-replay")
		}
		if err != nil {
			r.fail("churn(traced)", i, err)
		}
	}
}

// runTraced is the traced pass: one client, the same seed, a fixed
// number of operations per phase. untraced is the end-to-end pass the
// tail latencies come from; when the caller has none, a shorter one is
// run first.
func runTraced(cfg *config, w *workload, untraced *e2eResult) (*tracedResult, error) {
	res := &tracedResult{metrics: map[string]float64{}}
	if untraced == nil {
		var err error
		if untraced, err = runE2E(cfg, w, cfg.seconds/2); err != nil {
			return nil, err
		}
	}
	res.attempted, res.failed = untraced.attempted, untraced.failed

	r, err := setUp(w, cfg.seed, 1, fileImages(w, cfg.seed, 1), filepath.Join(cfg.outDir, fmt.Sprintf("traced-%s-%d", w.name, os.Getpid())), true)
	if err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", w.name, err)
	}
	defer r.close()
	probe, err := r.tb.newLayerProbe(w.cache)
	if err != nil {
		return nil, err
	}
	defer probe.close()

	n := w.traceOps
	if cfg.quick {
		n = max(n/10, 2)
	}
	tp := &tracedPass{r: r, c: r.clients[0], probe: probe, tr: newTracer(!w.class2),
		counts: map[string]*phaseCounts{}, selfs: map[int][]time.Duration{}}
	start := time.Now()
	for phase := 0; phase < numPhases; phase++ {
		tp.tr.phase = phaseNames[phase]
		switch phase {
		case phaseOpen:
			tp.openPhase(n)
		case phaseChurn:
			tp.churnPhase(n)
		case phaseRead:
			tp.countAllocs(n)
			tp.dataPhase(phase, n)
		case phaseReread:
			tp.warmCache()
			tp.dataPhase(phase, n)
		default:
			tp.dataPhase(phase, n)
		}
	}
	r.verifyAll("after traced pass")
	wall := time.Since(start)
	if err := tp.tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	tp.metrics(res.metrics, untraced)
	fmt.Printf("%-16s traced pass: %d spans in %.1f s, written to %s\n", w.name, len(tp.tr.spans), wall.Seconds(),
		filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl"))

	// What must hold for the layer split to mean anything.
	m := res.metrics
	if !w.class2 && (m["netsim.wait_us"] != 0 || m["netsim.busy_share"] != 0) {
		r.fail("traced", 0, fmt.Errorf("netsim metrics are not 0 on a native workload"))
	}
	if m["metadb.wal_fsyncs"] != 0 {
		r.fail("traced", 0, fmt.Errorf("the WAL was fsynced %v times; the stated flush policy is never", m["metadb.wal_fsyncs"]))
	}
	res.attempted += r.attempted.Load()
	res.failed += r.failed.Load()
	m["core.fail_share"] = float64(res.failed) / float64(res.attempted)
	return res, nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics computes the per-layer metrics from the spans and counts.
func (tp *tracedPass) metrics(m map[string]float64, untraced *e2eResult) {
	tr := tp.tr
	count := func(name string) *phaseCounts {
		if pc := tp.counts[name]; pc != nil {
			return pc
		}
		return &phaseCounts{}
	}
	rd, wr, rr := count("core.read"), count("core.write"), count("core.reread")
	op, cr, rm := count("core.open"), count("core.create"), count("core.remove")
	perOp := func(pc *phaseCounts, idx int) float64 { return ratio(float64(pc.reg[idx]), float64(pc.ops)) }

	m["stripe.plan_us"] = tr.med("read", "stripe.plan")
	m["stripe.combine_us"] = tr.med("read", "stripe.combine")
	m["stripe.bricks_per_op"] = float64(tp.replay.bricks)
	m["stripe.requests_per_op"] = float64(tp.replay.requests)

	// The two messages that carry the payload: a write's request and a
	// read's response.
	m["wire.req_codec_us"] = tr.med("write", "wire.req_codec")
	m["wire.resp_codec_us"] = tr.med("read", "wire.resp_codec")
	codecUS := 0.0
	for _, d := range append(append([]time.Duration{}, tr.durs["write/wire.req_codec"]...), tr.durs["read/wire.resp_codec"]...) {
		codecUS += float64(d.Nanoseconds()) / 1e3
	}
	m["wire.codec_mbps"] = ratio(float64(tp.replay.codecBytes), codecUS) // bytes per microsecond = MB/s
	m["wire.allocs_per_msg"] = median(tp.replay.codecAllocs)

	m["server.rpc_read_us"] = tr.med("read", "server.rpc_read")
	m["server.rpc_write_us"] = tr.med("write", "server.rpc_write")
	m["server.ping_us"] = tr.med("read", "server.ping")
	m["server.subfile_us"] = ratio(float64(rd.reg[cSubfileSumUS]+wr.reg[cSubfileSumUS]), float64(rd.reg[cSubfileCount]+wr.reg[cSubfileCount]))
	m["server.requests_per_op"] = perOp(rd, cSrvRequests)
	m["server.bytes_in_per_op"] = perOp(wr, cSrvBytesIn)
	m["server.bytes_out_per_op"] = perOp(rd, cSrvBytesOut)
	var conns, errors float64
	for _, pc := range tp.counts {
		conns += float64(pc.reg[cSrvConns])
		errors += float64(pc.reg[cSrvErrors])
	}
	m["server.conns"], m["server.errors"] = conns, errors

	m["netsim.wait_us"] = ratio(float64(rd.reg[cNetsimSumUS]+wr.reg[cNetsimSumUS]), float64(rd.reg[cNetsimCount]+wr.reg[cNetsimCount]))
	m["netsim.busy_share"] = ratio(float64(rd.reg[cNetsimBusyNS]+wr.reg[cNetsimBusyNS]), ioServers*float64((rd.wall+wr.wall).Nanoseconds()))

	m["cache.get_us"] = tr.med("reread", "cache.get")
	m["cache.put_us"] = tr.med("reread", "cache.put")
	m["cache.hit_ratio"] = ratio(float64(rr.engine.dataHits), float64(rr.engine.dataHits+rr.engine.dataMisses))
	m["cache.evictions_per_op"] = ratio(float64(rr.engine.dataEvictions), float64(rr.ops))
	m["cache.meta_hit_ratio"] = ratio(float64(rr.engine.metaHits), float64(rr.engine.metaHits+rr.engine.metaMisses))

	for _, name := range []string{"read", "write", "reread", "open"} {
		m["core."+name+"_us"] = tr.med(name, "core."+name)
	}
	m["core.create_us"] = tr.med("churn", "core.create")
	m["core.remove_us"] = tr.med("churn", "core.remove")
	m["core.read_self_us"] = medianUS(tp.selfs[phaseRead])
	m["core.write_self_us"] = medianUS(tp.selfs[phaseWrite])
	m["core.read_p99_us"] = tailUS(untraced.lats[phaseRead])
	m["core.write_p99_us"] = tailUS(untraced.lats[phaseWrite])
	m["core.open_p99_us"] = tailUS(untraced.lats[phaseOpen])
	m["core.create_p99_us"] = tailUS(untraced.lats[phaseChurn])
	for _, name := range []string{"core.create_p50_us", "core.remove_p50_us", "core.churn_ops_s"} {
		m[name] = untraced.metrics[name]
	}
	m["core.moved_per_useful_write"] = ratio(float64(wr.stats.BytesTransferred), float64(wr.stats.BytesUseful))
	m["core.allocs_per_op"] = tp.ref.allocs
	m["core.alloc_kb_per_op"] = tp.ref.allocKiB
	m["core.peak_rss_mb"] = peakRSSMiB()
	refUS := medianUS(tp.ref.lats)
	m["core.trace_overhead_pct"] = 100 * ratio(m["core.read_us"]-refUS, refUS)

	for _, name := range []string{"lookup", "stat", "readdir"} {
		m["meta."+name+"_us"] = tr.med("open", "meta."+name)
	}
	for _, name := range []string{"used_bytes", "create", "remove"} {
		m["meta."+name+"_us"] = tr.med("churn", "meta."+name)
	}
	m["meta.stmts_per_open"] = perOp(op, cMdbRequests)
	m["meta.stmts_per_create"] = perOp(cr, cMdbRequests)
	m["meta.stmts_per_remove"] = perOp(rm, cMdbRequests)

	m["mdbnet.rpc_us"] = tr.med("open", "mdbnet.rpc")
	m["mdbnet.requests_per_op"] = perOp(rd, cMdbRequests)

	m["metadb.parse_us"] = tr.med("open", "metadb.parse")
	m["metadb.exec_lookup_us"] = tr.med("open", "metadb.exec_lookup")
	m["metadb.exec_used_bytes_us"] = tr.med("churn", "metadb.exec_used_bytes")
	m["metadb.queries_per_op"] = perOp(rd, cDBQueries)
	m["metadb.wal_bytes_per_create"] = perOp(cr, cWALBytes)
	m["metadb.wal_appends_per_create"] = perOp(cr, cWALAppends)
	m["metadb.wal_fsyncs"] = float64(tp.r.tb.readCounters()[cWALFsyncs])
}
