package bench

import (
	"bytes"
	"context"
	"testing"
	"time"

	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/netsim"
	"dpfs/internal/server"
	"dpfs/internal/stripe"
)

// These tests assert the *shape* of the paper's evaluation — who wins
// and roughly by how much — at a reduced scale. They are the
// regression guard for the reproduction: if a change to the striping,
// combination or placement code inverts one of the paper's findings,
// a test here fails. Margins are deliberately loose (timing on a busy
// host is noisy) and each assertion retries once before failing.
func testConfig(t *testing.T) Config {
	return Config{N: 256, Dir: t.TempDir(), Reps: 3}
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// retryRatio asserts got() produces a pair (a, b) with a/b >= want,
// allowing one retry to ride out scheduling noise.
func retryRatio(t *testing.T, what string, want float64, got func() (float64, float64, error)) {
	t.Helper()
	var a, b float64
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		a, b, err = got()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if b > 0 && a/b >= want {
			return
		}
	}
	t.Errorf("%s: ratio %.2f (%.2f / %.2f), want >= %.2f", what, a/b, a, b, want)
}

// byLabel indexes measurements.
func byLabel(ms []Measurement) map[string]Measurement {
	out := make(map[string]Measurement, len(ms))
	for _, m := range ms {
		out[m.Label] = m
	}
	return out
}

// TestFig11Shape: on one storage class, the paper's file-level ordering
// holds: multidim beats linear by a large factor, the array level
// beats combined multidim, and request combination helps the linear
// and multidim levels but not the array level.
func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based shape test")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts timing ratios")
	}
	cfg := testConfig(t)
	ctx := ctxT(t)

	run := func() map[string]Measurement {
		ms, err := FileLevels(ctx, cfg, "Fig11", 8, 4, netsim.Class1())
		if err != nil {
			t.Fatal(err)
		}
		return byLabel(ms)
	}

	retryRatio(t, "multidim over linear (paper: 10-20x with hints)", 3.0, func() (float64, float64, error) {
		m := run()
		return m["Combined Multi-dim"].MBps, m["Linear"].MBps, nil
	})
	retryRatio(t, "combination helps linear", 1.2, func() (float64, float64, error) {
		m := run()
		return m["Combined Linear"].MBps, m["Linear"].MBps, nil
	})
	retryRatio(t, "combination helps multidim", 1.1, func() (float64, float64, error) {
		m := run()
		return m["Combined Multi-dim"].MBps, m["Multi-dim"].MBps, nil
	})
	retryRatio(t, "array over combined multidim (paper: ~2x over multidim)", 1.1, func() (float64, float64, error) {
		m := run()
		return m["Array"].MBps, m["Combined Multi-dim"].MBps, nil
	})
	// Combination can not further improve the array level (paper): the
	// two bars stay within noise of each other (each side bounded).
	retryRatio(t, "combined array does not collapse", 0.7, func() (float64, float64, error) {
		m := run()
		return m["Combined Array"].MBps, m["Array"].MBps, nil
	})
}

// TestFig11TrafficShape asserts the non-timing side of Fig. 11, which
// is deterministic: request counts and moved bytes per level.
func TestFig11TrafficShape(t *testing.T) {
	const np = 8
	cfg := testConfig(t)
	cfg.N = 512 // the recorded figures' size: a linear brick is 8 rows
	cfg.Reps = 1
	cfg = cfg.WithDefaults()
	ctx := ctxT(t)
	ms, err := FileLevels(ctx, cfg, "Fig11", np, 4, netsim.Params{})
	if err != nil {
		t.Fatal(err)
	}
	m := byLabel(ms)

	// Linear touches every brick of the file and, fetching it whole as
	// the paper's client does, moves np = 8x the useful bytes: each
	// processor wants an eighth of every row. Multidim and array move
	// exactly the useful bytes.
	for _, label := range []string{"Linear", "Combined Linear"} {
		if got := m[label].MovedMB / m[label].UsefulMB; got != np {
			t.Errorf("%s moved %.2f MB for %.2f useful (%.3fx), want whole bricks, %dx",
				label, m[label].MovedMB, m[label].UsefulMB, got, np)
		}
	}
	if m["Multi-dim"].MovedMB != m["Multi-dim"].UsefulMB {
		t.Errorf("multidim moved %.2f MB for %.2f useful", m["Multi-dim"].MovedMB, m["Multi-dim"].UsefulMB)
	}
	// Request counts: 8 procs x 64 bricks linear = 512; combination
	// collapses to one per proc per server (<= 32); multidim column
	// access touches 8 bricks per proc = 64; array one chunk per proc.
	if m["Linear"].Requests != 512 {
		t.Errorf("linear requests = %d, want 512", m["Linear"].Requests)
	}
	if m["Combined Linear"].Requests != 32 {
		t.Errorf("combined linear requests = %d, want 32", m["Combined Linear"].Requests)
	}
	if m["Multi-dim"].Requests != 64 {
		t.Errorf("multidim requests = %d, want 64", m["Multi-dim"].Requests)
	}
	if m["Array"].Requests != 8 {
		t.Errorf("array requests = %d, want 8 (one chunk per proc)", m["Array"].Requests)
	}

	// The engine's own default — no cache, so the servers sieve each
	// brick's span — makes the same requests for the same access and
	// moves exactly the useful bytes.
	for _, lc := range LevelCases()[:2] {
		got, err := runLevelCase(ctx, cfg, np, 4, netsim.Params{}, lc, false)
		if err != nil {
			t.Fatal(err)
		}
		if got.MovedMB != got.UsefulMB || got.Requests != m[lc.Label].Requests {
			t.Errorf("%s, sieved: %d requests moved %.2f MB for %.2f useful, want %d requests and no more than useful",
				lc.Label, got.Requests, got.MovedMB, got.UsefulMB, m[lc.Label].Requests)
		}
	}
}

// TestFig13Shape: greedy placement beats round-robin on mixed
// class-1/class-3 storage for reads and writes, combined or not.
func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based shape test")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts timing ratios")
	}
	cfg := testConfig(t)
	ctx := ctxT(t)

	for _, ac := range AlgoCases() {
		ac := ac
		retryRatio(t, "greedy over round-robin: "+ac.Label, 1.1, func() (float64, float64, error) {
			g, err := RunAlgoCase(ctx, cfg, "greedy", ac, 8, 8)
			if err != nil {
				return 0, 0, err
			}
			r, err := RunAlgoCase(ctx, cfg, "round-robin", ac, 8, 8)
			if err != nil {
				return 0, 0, err
			}
			return g.MBps, r.MBps, nil
		})
	}
}

// TestGreedySplitShape: the deterministic half of Fig. 13 — greedy
// gives the class-1 half 3x the bricks of the class-3 half.
func TestGreedySplitShape(t *testing.T) {
	perf := netsim.NormalizedPerf([]netsim.Params{
		netsim.Class1(), netsim.Class1(), netsim.Class3(), netsim.Class3(),
	}, 512<<10)
	if perf[0] != 1 || perf[2] != 3 {
		t.Fatalf("normalized perf = %v, want [1 1 3 3]", perf)
	}
}

// TestAblationShapes: the ablations' winners stay the right way
// around.
func TestAblationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based shape test")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts timing ratios")
	}
	cfg := testConfig(t)
	ctx := ctxT(t)

	retryRatio(t, "stagger avoids convoy", 1.05, func() (float64, float64, error) {
		ms, err := AblationStagger(ctx, cfg, 8, 8)
		if err != nil {
			return 0, 0, err
		}
		m := byLabel(ms)
		return m["Combined+Stagger"].MBps, m["Combined, no stagger"].MBps, nil
	})
	// Under column access the square tile beats the row tile on what the
	// servers sweep, not on modelled time: a rank's row-tile spans on a
	// server sit in neighbouring slots and join into one positioned
	// sweep, and the storage model does not price the four times as many
	// bytes it crosses (ROADMAP item 4), so the row tile's MB/s now
	// matches the square tile's. TestShapeAblationSweep pins that cost
	// exactly. The column tile fits the access but spreads it over four
	// times the requests, which the model does price.
	retryRatio(t, "square tile beats column tile under column access", 1.2, func() (float64, float64, error) {
		ms, err := AblationBrickShape(ctx, cfg, 8, 4)
		if err != nil {
			return 0, 0, err
		}
		m := byLabel(ms)
		return m["square tile"].MBps, m["column tile"].MBps, nil
	})
	retryRatio(t, "more servers scale bandwidth", 1.5, func() (float64, float64, error) {
		ms, err := AblationServerCount(ctx, cfg, 8, []int{1, 4})
		if err != nil {
			return 0, 0, err
		}
		return ms[1].MBps, ms[0].MBps, nil
	})
	retryRatio(t, "collective beats independent on interleaved rows", 1.5, func() (float64, float64, error) {
		ms, err := AblationCollective(ctx, cfg, 8, 4)
		if err != nil {
			return 0, 0, err
		}
		m := byLabel(ms)
		return m["Collective (two-phase)"].MBps, m["Independent"].MBps, nil
	})
	retryRatio(t, "one request per server at once beats one at a time", 1.5, func() (float64, float64, error) {
		ms, err := AblationParallel(ctx, cfg, 4, 4)
		if err != nil {
			return 0, 0, err
		}
		m := byLabel(ms)
		return m["MaxInflight 0"].MBps, m["MaxInflight 1"].MBps, nil
	})
}

// TestShapeAblationSweep: under column access the square tile beats
// the row tile on the bytes the servers sweep, a cost the storage model
// does not price (ROADMAP item 4) and so no MB/s ratio shows. The shape
// ablation's eight ranks each read 32 columns of a 256x256 float64
// array on four servers. In 32x32 tiles a rank's columns are one column
// of bricks, read whole, all on one server: one request each, and the
// servers sweep exactly the 512 KiB wanted. In 8x128 tiles they are a
// quarter of each of 32 bricks, 16 to a server in neighbouring slots:
// two requests each, and each request is one extent from the first
// 256-byte piece of slot 0 to the last of slot 15, 15 x 8 KiB + 7 KiB +
// 256 bytes, so the servers sweep 3.98 times what is wanted. Both move
// exactly the wanted bytes.
func TestShapeAblationSweep(t *testing.T) {
	cfg := testConfig(t)
	cfg.Reps = 1
	ctx := ctxT(t)
	const wanted = 256 * 256 * 8
	for _, tc := range []struct {
		label           string
		tile            []int64 // AblationBrickShape's at N = 256
		requests, swept int64
	}{
		{"square tile", []int64{32, 32}, 8, wanted},
		{"row tile", []int64{8, 128}, 16, 16 * (15*8<<10 + 7<<10 + 256)},
	} {
		c, err := cluster.Start(cluster.Config{Servers: cluster.UniformClass(4, netsim.Params{}), Dir: caseDir(cfg.Dir)})
		if err != nil {
			t.Fatal(err)
		}
		before := subfileBytesRead(c)
		m, err := runShapeCase(ctx, cfg, c, 8, tc.tile)
		swept := subfileBytesRead(c) - before
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if m.UsefulMB != float64(wanted)/(1<<20) || m.MovedMB != m.UsefulMB || m.Requests != tc.requests || swept != tc.swept {
			t.Errorf("%s: %d requests moved %.2f MB for %.2f wanted and swept %d bytes; want %d requests, %.2f MB and %d bytes",
				tc.label, m.Requests, m.MovedMB, m.UsefulMB, swept, tc.requests, float64(wanted)/(1<<20), tc.swept)
		}
	}
}

// subfileBytesRead sums the bytes c's servers have read from subfiles.
func subfileBytesRead(c *cluster.Cluster) int64 {
	var n int64
	for _, srv := range c.IOServers {
		n += srv.Metrics().Counter(server.MetricSubfileBytesRead).Value()
	}
	return n
}

// TestFigureDispatch covers the Figure() entry points and unknown
// figure handling.
func TestFigureDispatch(t *testing.T) {
	cfg := testConfig(t)
	cfg.Reps = 1
	cfg.N = 128
	ctx := ctxT(t)
	if _, err := Figure(ctx, cfg, 7); err == nil {
		t.Fatal("figure 7 should be rejected")
	}
	ms, err := Figure(ctx, cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 8 {
		t.Fatalf("fig 13 bars = %d, want 8", len(ms))
	}
	if _, err := Ablation(ctx, cfg, "nosuch"); err == nil {
		t.Fatal("unknown ablation should be rejected")
	}
	if len(AblationNames()) != 9 {
		t.Fatalf("ablations = %v", AblationNames())
	}
	// Measurement renders.
	if s := ms[0].String(); s == "" {
		t.Fatal("empty measurement string")
	}
}

// TestCyclicRowsPlan: the one-access form of a rank's interleaved rows
// (the collective ablation's "Independent typed" case, one WriteAtTyped
// with a vector file type) writes each row where row-by-row writes
// would, and travels as one request per server.
func TestCyclicRowsPlan(t *testing.T) {
	const n, tile, np, io = 64, 16, 4, 2
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(io), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxT(t)
	fs, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, err := fs.Create("/cyclic", elemSize, []int64{n, n}, core.Hint{Level: stripe.LevelMultidim, Tile: []int64{tile, tile}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rounds := n / np
	rowBytes := n * elemSize
	bufs := make([][]byte, np)
	for rank := range bufs {
		bufs[rank] = make([]byte, rounds*rowBytes)
		for i := range bufs[rank] {
			bufs[rank][i] = byte(i*7 + rank*31 + i>>8)
		}
		ftype, mtype := cyclicRows(np, rounds, int64(rowBytes))
		before := fs.Stats().Requests
		if err := f.WriteAtTyped(ctx, int64(rank*rowBytes), ftype, mtype, bufs[rank]); err != nil {
			t.Fatal(err)
		}
		if got := fs.Stats().Requests - before; got != io {
			t.Errorf("rank %d: %d requests, want one per server (%d)", rank, got, io)
		}
	}
	for row := 0; row < n; row++ {
		got := make([]byte, rowBytes)
		if err := f.ReadSection(ctx, stripe.NewSection([]int64{int64(row), 0}, []int64{1, n}), got); err != nil {
			t.Fatal(err)
		}
		rank, round := row%np, row/np
		if !bytes.Equal(got, bufs[rank][round*rowBytes:(round+1)*rowBytes]) {
			t.Fatalf("row %d differs from rank %d's round %d", row, rank, round)
		}
	}
}
