package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpfs"
)

// The five phases of every run, in order.
const (
	phaseWrite = iota
	phaseRead
	phaseReread
	phaseOpen
	phaseChurn
	numPhases
)

var phaseNames = [numPhases]string{"write", "read", "reread", "open", "churn"}

// spotChecks is how many seed-chosen 8-byte words of each read buffer
// are compared against the file image, outside the operation's timer.
const spotChecks = 4

// dataFile is one file of the benchmark with the image of its contents.
type dataFile struct {
	path string
	img  []byte
}

// benchClient is one closed-loop compute process: two engines of the
// same rank (plain: no caches; cached: data cache + 1 s metadata TTL)
// and the files it works on.
type benchClient struct {
	rank   int
	plain  *dpfs.Client
	cached *dpfs.Client
	files  []*dataFile // the client's share of the data files

	// Handles kept open by the workloads whose clients own one file.
	plainFile, cachedFile *dpfs.File

	buf  []byte     // read buffer of one op
	pack []byte     // packed write buffer for sections that are not one run
	chk  *rand.Rand // picks the words of a read buffer that are spot-checked
	rngs [numPhases]*rand.Rand
}

// run is one set-up workload with its clients and the failure tally.
type run struct {
	w       *workload
	seed    int64
	round   int // varies the placements (not the contents) between the rounds of a pass
	tb      *testbed
	clients []*benchClient
	all     []*dataFile // every data file, for the open phase and the byte check
	ctx     context.Context
	images  [][]byte // contents of the data files, by file number
	whole   []byte   // one whole file, for the byte checks

	attempted, failed atomic.Int64
}

// fail records a failed or wrong-bytes operation.
func (r *run) fail(phase string, op int, err error) {
	if r.failed.Add(1) <= 20 { // enough to diagnose; the count is exact regardless
		fmt.Fprintf(os.Stderr, "FAIL %s/%s op %d: %v\n", r.w.name, phase, op, err)
	}
}

func (r *run) attempt(n int64) { r.attempted.Add(n) }

// fileImages generates the contents of every data file of a workload
// run by nclients clients. It runs before a set-up is timed: making the
// inputs is the benchmark's work, not the file system's.
func fileImages(w *workload, seed int64, nclients int) [][]byte {
	n := nclients
	if w.catalog > 0 {
		n = w.catalog
	}
	images := make([][]byte, n)
	for i := range images {
		images[i] = fileImage(seed, i, w.fileBytes())
	}
	return images
}

// setUp starts the cluster, connects the clients, and creates and fills
// the data files: all of them, or with whole unset one per client, which
// is what setup_s times on every workload.
func setUp(w *workload, seed int64, nclients int, images [][]byte, dir string, whole bool) (*run, error) {
	tb, err := startTestbed(w, dir)
	if err != nil {
		return nil, err
	}
	r := &run{w: w, seed: seed, tb: tb, ctx: context.Background(), images: images}
	if err := r.populate(nclients, whole); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *run) populate(nclients int, whole bool) error {
	w := r.w
	for rank := 0; rank < nclients; rank++ {
		c := &benchClient{
			rank: rank,
			buf:  make([]byte, w.opBytes()),
			pack: make([]byte, w.opBytes()),
			chk:  rand.New(rand.NewSource(r.seed ^ int64(rank+1)<<32)),
		}
		var err error
		if c.plain, err = r.tb.connect(rank, 0, 0); err != nil {
			return err
		}
		r.clients = append(r.clients, c)
		if c.cached, err = r.tb.connect(rank, w.cache, time.Second); err != nil {
			return err
		}
	}
	admin := r.clients[0].plain
	if err := admin.Mkdir("/bench"); err != nil {
		return err
	}
	for _, c := range r.clients {
		if err := admin.Mkdir(fmt.Sprintf("/bench/c%d", c.rank)); err != nil {
			return err
		}
	}
	hint := w.hint
	hint.NoCapacityCheck = w.noCapChk
	full := dpfs.FullSection(w.dims)

	if w.catalog == 0 {
		for _, c := range r.clients {
			df := &dataFile{path: fmt.Sprintf("/bench/c%d/data", c.rank), img: r.images[c.rank]}
			f, err := c.plain.Create(df.path, w.elem, w.dims, hint)
			if err != nil {
				return err
			}
			if err := f.WriteSection(r.ctx, full, df.img); err != nil {
				return err
			}
			c.plainFile = f
			if c.cachedFile, err = c.cached.Open(df.path); err != nil {
				return err
			}
			c.files = []*dataFile{df}
			r.all = append(r.all, df)
		}
		return nil
	}

	n := w.catalog
	if !whole {
		n = nclients
	}
	if err := admin.Mkdir("/cat"); err != nil {
		return err
	}
	for d := 0; d < catalogDirs; d++ {
		if err := admin.Mkdir(fmt.Sprintf("/cat/d%02d", d)); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		c := r.clients[i%len(r.clients)]
		df := &dataFile{path: catalogPath(i), img: r.images[i]}
		f, err := c.plain.Create(df.path, w.elem, w.dims, hint)
		if err != nil {
			return err
		}
		if err := f.WriteSection(r.ctx, full, df.img); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		c.files = append(c.files, df)
		r.all = append(r.all, df)
	}
	return nil
}

// close disconnects the clients and stops the cluster.
func (r *run) close() {
	for _, c := range r.clients {
		if c.plain != nil {
			c.plain.Close()
		}
		if c.cached != nil {
			c.cached.Close()
		}
	}
	if err := r.tb.close(); err != nil {
		fmt.Fprintf(os.Stderr, "warning: %s: closing the cluster: %v\n", r.w.name, err)
	}
}

// phaseRNG returns the stream of one client's choices in one phase of
// one round. The three data phases are seeded alike, so read and reread
// visit the sections write wrote, in the same order.
func (r *run) phaseRNG(c *benchClient, phase int) *rand.Rand {
	if c.rngs[phase] == nil {
		stream := phase
		if phase <= phaseReread {
			stream = phaseWrite
		}
		c.rngs[phase] = rand.New(rand.NewSource(r.seed*1_000_003 + int64(r.round)*7919 + int64(c.rank)*101 + int64(stream)))
	}
	return c.rngs[phase]
}

// access is one data op: a placement on a file, with the buffer it
// moves.
type access struct {
	df    *dataFile
	sec   dpfs.Section
	write bool
	buf   []byte
}

// pickAccess chooses the file and placement of the next data op of a
// phase and prepares its buffer: for a write, the section's bytes of
// the file image (in place when they are one run, packed otherwise).
func (r *run) pickAccess(c *benchClient, phase int, rng *rand.Rand) access {
	w := r.w
	a := access{
		df:    c.files[rng.Intn(len(c.files))],
		sec:   w.section(rng.Intn(w.positions)),
		write: phase == phaseWrite,
		buf:   c.buf,
	}
	if a.write {
		if off, ok := contiguous(w.dims, w.elem, a.sec); ok {
			a.buf = a.df.img[off : off+int64(len(c.buf))]
		} else {
			a.buf = c.pack
			packSection(a.df.img, w.dims, w.elem, a.sec, a.buf)
		}
	}
	return a
}

// dataOp performs one data access through the phase's engine and
// returns its sample (without the completion time). On a populated
// catalog the access is open -> transfer -> close. Reads are
// spot-checked against the image after the timer stops.
func (r *run) dataOp(c *benchClient, phase int, a access) (sample, error) {
	w := r.w
	engine, file := c.plain, c.plainFile
	if phase == phaseReread {
		engine, file = c.cached, c.cachedFile
	}
	start := time.Now()
	var err error
	if w.catalog > 0 {
		if file, err = engine.Open(a.df.path); err != nil {
			return sample{}, err
		}
	}
	switch {
	case w.byteAPI && a.write:
		err = file.WriteAt(r.ctx, a.buf, a.sec.Start[0])
	case w.byteAPI:
		err = file.ReadAt(r.ctx, a.buf, a.sec.Start[0])
	case a.write:
		err = file.WriteSection(r.ctx, a.sec, a.buf)
	default:
		err = file.ReadSection(r.ctx, a.sec, a.buf)
	}
	if err == nil && w.catalog > 0 {
		err = file.Close()
	}
	s := sample{began: start, lat: time.Since(start), bytes: int64(len(a.buf))}
	if err != nil || a.write {
		return s, err
	}
	for k := 0; k < spotChecks; k++ {
		mem := int64(c.chk.Intn(len(a.buf)/8)) * 8
		off := sectionOffset(w.dims, w.elem, a.sec, mem)
		if got, want := binary.LittleEndian.Uint64(a.buf[mem:]), binary.LittleEndian.Uint64(a.df.img[off:]); got != want {
			return s, fmt.Errorf("%s: word at file offset %d is %#x, want %#x", a.df.path, off, got, want)
		}
	}
	return s, nil
}

// openFile opens and closes an existing file.
func (r *run) openFile(c *benchClient, df *dataFile) (sample, error) {
	start := time.Now()
	f, err := c.plain.Open(df.path)
	if err == nil {
		err = f.Close()
	}
	return sample{began: start, lat: time.Since(start)}, err
}

// churnPath names the next file of the churn phase.
func churnPath(c *benchClient, rng *rand.Rand) string {
	return fmt.Sprintf("/bench/c%d/churn-%08x", c.rank, rng.Uint32())
}

// createOp creates a fresh 64x64 float64 multidimensional file with the
// default hint, so the capacity check runs.
func (r *run) createOp(c *benchClient, path string) (began time.Time, lat time.Duration, err error) {
	began = time.Now()
	f, err := c.plain.Create(path, 8, []int64{64, 64}, dpfs.Hint{Level: dpfs.Multidim})
	lat = time.Since(began)
	if err == nil {
		err = f.Close()
	}
	return began, lat, err
}

// removeOp removes a file createOp made.
func (r *run) removeOp(c *benchClient, path string) (began time.Time, lat time.Duration, err error) {
	began = time.Now()
	err = c.plain.Remove(r.ctx, path)
	return began, time.Since(began), err
}

// churnOp is one create+remove cycle.
func (r *run) churnOp(c *benchClient, rng *rand.Rand) (s sample, err error) {
	path := churnPath(c, rng)
	if s.began, s.lat, err = r.createOp(c, path); err != nil {
		return s, err
	}
	s.began2, s.lat2, err = r.removeOp(c, path)
	return s, err
}

// op dispatches one operation of a phase.
func (r *run) op(c *benchClient, phase int, rng *rand.Rand) (sample, error) {
	switch phase {
	case phaseOpen:
		return r.openFile(c, r.all[rng.Intn(len(r.all))])
	case phaseChurn:
		return r.churnOp(c, rng)
	}
	return r.dataOp(c, phase, r.pickAccess(c, phase, rng))
}

// timedPhase runs one phase closed-loop on every client: an untimed
// warm-up, then operations back to back until the timed window ends.
// Each client issues its next operation only when the previous one has
// completed. Failed operations are tallied and leave no sample.
func (r *run) timedPhase(phase int, warm, timed time.Duration) []sample {
	var (
		mu      sync.Mutex
		samples []sample
		ready   sync.WaitGroup
		done    sync.WaitGroup
		begin   = make(chan time.Time)
	)
	for _, c := range r.clients {
		ready.Add(1)
		done.Add(1)
		go func(c *benchClient) {
			defer done.Done()
			rng := r.phaseRNG(c, phase)
			for end := time.Now().Add(warm); time.Now().Before(end); {
				r.attempt(1)
				if _, err := r.op(c, phase, rng); err != nil {
					r.fail(phaseNames[phase]+"(warm-up)", 0, err)
				}
			}
			ready.Done()
			t0 := <-begin
			var mine []sample
			for i := 0; time.Since(t0) < timed; i++ {
				r.attempt(1)
				s, err := r.op(c, phase, rng)
				if err != nil {
					r.fail(phaseNames[phase], i, err)
					continue
				}
				s.end = time.Since(t0)
				mine = append(mine, s)
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}(c)
	}
	ready.Wait()
	t0 := time.Now()
	for range r.clients {
		begin <- t0
	}
	done.Wait()
	return samples
}

// verifyAll reads every data file whole through an engine without a
// cache and compares every byte with the image.
func (r *run) verifyAll(when string) {
	full := dpfs.FullSection(r.w.dims)
	if r.whole == nil {
		r.whole = make([]byte, r.w.fileBytes())
	}
	buf := r.whole
	engine := r.clients[0].plain
	for i, df := range r.all {
		r.attempt(1)
		f, err := engine.Open(df.path)
		if err == nil {
			err = f.ReadSection(r.ctx, full, buf)
			f.Close()
		}
		if err == nil && !bytes.Equal(buf, df.img) {
			err = fmt.Errorf("%s: contents differ from what was written", df.path)
		}
		if err != nil {
			r.fail("verify("+when+")", i, err)
		}
	}
}

// stats sums the engines' traffic counters over the clients' plain
// engines.
func (r *run) stats() dpfs.Stats {
	var s dpfs.Stats
	for _, c := range r.clients {
		cs := c.plain.Stats()
		s.Requests += cs.Requests
		s.BytesTransferred += cs.BytesTransferred
		s.BytesUseful += cs.BytesUseful
	}
	return s
}

// e2eResult is one end-to-end pass over a workload.
type e2eResult struct {
	metrics   map[string]float64
	perRound  map[string][]float64 // every timing's value in each round (setup_s: in each set-up)
	samples   map[string]int       // sample count behind each timing, all rounds
	lats      [numPhases][]time.Duration
	attempted int64
	failed    int64
}

// rounds is how many times a pass sets the workload up on a fresh
// cluster and goes through the five phases. Every timing of the phases
// is computed per round (a latency as the median of the round's
// operations) and the best round is reported: the highest rate, the
// lowest median latency. On the shared two-processor sandbox even a bare
// arithmetic loop runs 5% slower or faster from one second to the next,
// and what slows a cluster down (where its goroutines landed, write-back
// of the files it dirtied) stays with it; the best of several fresh
// clusters repeats better than their median and better than one cluster
// measured five times as long (README.md, "Why rounds", has the
// measured comparison). A -quick pass has one round and one timed
// set-up.
const rounds = 5

// setUps is how many set-ups setup_s is the median of: cluster start,
// client connections, directories, and creating and filling one data
// file per client. They are made back to back after the rounds, not at
// the head of each round: filling a fresh file takes twice as long for a
// few hundred milliseconds every few seconds (write-back) and in a
// process that has not yet grown its heap, and nine in a row in a warm
// process outvote both; the median of the five at the heads of the
// rounds moved by 60% between two batches of runs. The rest of a
// populated catalog is not part of it: that is hundreds of file
// creations, and on the sandbox's file system one costs 50 to 500 us
// depending on how many files were deleted in the last minutes (ext4
// passes over recently freed inodes), so that 64 creates took 60 to
// 250 ms from one run to the next.
const setUps = 9

// best picks a metric's value from its per-round values: the maximum of
// a rate, the minimum of a time.
func best(name string, vs []float64) float64 {
	if strings.HasSuffix(name, "_mbps") || strings.HasSuffix(name, "_ops_s") {
		return slices.Max(vs)
	}
	return slices.Min(vs)
}

// roundTimes splits a pass of the given length into rounds x phases
// windows and each window into an untimed warm-up (a fifth) and the
// timed part. The warm-up is long because every round starts on a fresh
// cluster, and because a phase that follows seconds of sleeping on the
// netsim model starts on cold processors.
func roundTimes(seconds float64, nrounds int) (warm, timed time.Duration) {
	window := seconds / float64(nrounds*numPhases) * float64(time.Second)
	return time.Duration(0.2 * window), time.Duration(0.8 * window)
}

// rate is units per second over a window: what completed, divided by
// the time to the last completion.
func rate(samples []sample, unit func(sample) float64) float64 {
	var units float64
	var end time.Duration
	for _, s := range samples {
		units += unit(s)
		end = max(end, s.end)
	}
	if end <= 0 {
		return 0
	}
	return units / end.Seconds()
}

// runE2E runs the rounds of one end-to-end pass that measures for the
// given number of seconds, and computes the end-to-end metrics.
func runE2E(cfg *config, w *workload, seconds float64) (*e2eResult, error) {
	res := &e2eResult{metrics: map[string]float64{}, perRound: map[string][]float64{}, samples: map[string]int{}}
	nrounds, nsetups := rounds, setUps
	if cfg.quick {
		nrounds, nsetups = 1, 1
	}
	warm, timed := roundTimes(seconds, nrounds)
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("run-%s-%d", w.name, os.Getpid()))
	images := fileImages(w, cfg.seed, cfg.clients)
	var moved, useful int64
	for round := 0; round < nrounds; round++ {
		r, err := setUp(w, cfg.seed, cfg.clients, images, dir, true)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		r.round = round
		m, u := r.roundOfPhases(warm, timed, res)
		moved, useful = moved+m, useful+u
		res.attempted += r.attempted.Load()
		res.failed += r.failed.Load()
		r.close()
	}
	for name, vs := range res.perRound {
		res.metrics[name] = best(name, vs)
	}
	res.metrics["read_moved_per_useful"] = ratio(float64(moved), float64(useful))

	for i := 0; i < nsetups; i++ {
		start := time.Now()
		r, err := setUp(w, cfg.seed, cfg.clients, images, dir, false)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.perRound["setup_s"] = append(res.perRound["setup_s"], time.Since(start).Seconds())
		r.close()
	}
	res.metrics["setup_s"] = median(slices.Clone(res.perRound["setup_s"]))
	return res, nil
}

// roundOfPhases runs the five timed phases once with the byte checks,
// appends the round's value of every timing metric and its latencies to
// res, and returns the bytes the read phase moved and the bytes its
// callers asked for.
func (r *run) roundOfPhases(warm, timed time.Duration, res *e2eResult) (moved, useful int64) {
	record := func(name string, v float64) { res.perRound[name] = append(res.perRound[name], v) }
	bytesOf := func(s sample) float64 { return float64(s.bytes) }
	for p := 0; p < numPhases; p++ {
		before := r.stats()
		phaseWarm := warm
		if p == 0 {
			// The first window after a set-up is slow and erratic for up
			// to 0.7 s (measured on bulk-native: 1.7-2.4 GB/s, then a
			// steady 2.5-2.9 GB/s): the set-up's garbage is collected and
			// the files it just filled are written for the first time. A
			// whole extra window of warm-up keeps that out of the timing.
			phaseWarm += warm + timed
		}
		samples := r.timedPhase(p, phaseWarm, timed)
		if p == phaseRead {
			// The warm-up is part of the reading: moved/useful is a ratio
			// of counts and does not depend on when counting starts.
			after := r.stats()
			moved = after.BytesTransferred - before.BytesTransferred
			useful = after.BytesUseful - before.BytesUseful
		}
		if p == phaseWrite {
			r.verifyAll("after write")
		}
		lats := make([]time.Duration, len(samples))
		for i, s := range samples {
			lats[i] = s.lat
		}
		res.lats[p] = append(res.lats[p], lats...)
		res.samples[phaseNames[p]] += len(samples)
		switch p {
		case phaseWrite, phaseRead, phaseReread:
			record(phaseNames[p]+"_mbps", rate(samples, bytesOf)/1e6)
			if p != phaseReread {
				record(phaseNames[p]+"_p50_us", medianUS(lats))
			}
		case phaseOpen:
			record("open_p50_us", medianUS(lats))
		case phaseChurn:
			// Not end-to-end metrics (see README.md, "What is not gated"):
			// the traced pass reports them as core.* diagnostics.
			removes := make([]time.Duration, len(samples))
			for i, s := range samples {
				removes[i] = s.lat2
			}
			record("core.create_p50_us", medianUS(lats))
			record("core.remove_p50_us", medianUS(removes))
			record("core.churn_ops_s", rate(samples, func(sample) float64 { return 1 }))
		}
	}
	r.verifyAll("at end")
	return moved, useful
}
