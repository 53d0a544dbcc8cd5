package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestQuickRun runs both passes of every workload in -quick mode and
// checks what must hold at any speed: every metric BENCHMARK.json
// declares is emitted with its unit, no operation fails, and the netsim
// layer is idle on the native workloads. A second quick run is looked
// at only for the counts that are exact, which must repeat exactly. The
// timings of a quick run mean nothing.
func TestQuickRun(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	declared := append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...)
	for _, ms := range declared {
		if !name.MatchString(ms.Name) {
			t.Errorf("metric name %q", ms.Name)
		}
	}

	out := filepath.Join("out", "test")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(out)
	cfg := config{spec: spec, seed: 7, seconds: 0.5, trace: -1, clients: defaultClients, quick: true, outDir: out}

	exact := []string{"read_moved_per_useful", "stripe.requests_per_op", "stripe.bricks_per_op",
		"meta.stmts_per_open", "meta.stmts_per_create", "meta.stmts_per_remove", "server.requests_per_op"}
	for _, w := range workloads {
		res, err := runWorkload(&cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		for _, ms := range declared {
			got, ok := res.Metrics[ms.Name]
			if !ok {
				t.Errorf("%s: metric %s was not emitted", w.name, ms.Name)
			} else if got.Unit != ms.Unit {
				t.Errorf("%s: metric %s has unit %q, declared %q", w.name, ms.Name, got.Unit, ms.Unit)
			}
		}
		for _, ms := range spec.EndToEnd {
			if res.Metrics[ms.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, ms.Name, res.Metrics[ms.Name].Value)
			}
		}
		if !w.class2 && (res.Metrics["netsim.wait_us"].Value != 0 || res.Metrics["netsim.busy_share"].Value != 0) {
			t.Errorf("%s: netsim metrics are not 0 on a native workload", w.name)
		}
		if res.Metrics["core.fail_share"].Value != 0 {
			t.Errorf("%s: core.fail_share = %v", w.name, res.Metrics["core.fail_share"].Value)
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".jsonl")); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}

		again, err := runWorkload(&cfg, w)
		if err != nil {
			t.Fatalf("%s: second run: %v", w.name, err)
		}
		for _, m := range exact {
			if a, b := res.Metrics[m].Value, again.Metrics[m].Value; a != b {
				t.Errorf("%s: %s is %v in one quick run and %v in the next; it is a count and must repeat exactly", w.name, m, a, b)
			}
		}
	}
}

// TestImageAddressing checks the section-to-image arithmetic the byte
// checks rest on.
func TestImageAddressing(t *testing.T) {
	w := workloadByName("column-class2")
	img := fileImage(3, 0, w.fileBytes())
	sec := w.section(5)
	packed := make([]byte, w.opBytes())
	packSection(img, w.dims, w.elem, sec, packed)
	for _, mem := range []int64{0, 8, 504, 512, int64(len(packed)) - 8} {
		off := sectionOffset(w.dims, w.elem, sec, mem)
		row, col := mem/512, 64*5+mem%512/8
		if want := (row*512 + col) * 8; off != want {
			t.Errorf("sectionOffset(%d) = %d, want %d", mem, off, want)
		}
		if string(packed[mem:mem+8]) != string(img[off:off+8]) {
			t.Errorf("packed word at %d differs from the image at %d", mem, off)
		}
	}
	if _, ok := contiguous(w.dims, w.elem, sec); ok {
		t.Error("a column block is not one run of a row-major file")
	}
	bulk := workloadByName("bulk-native")
	if off, ok := contiguous(bulk.dims, bulk.elem, bulk.section(2)); !ok || off != 2*256*2048*8 {
		t.Errorf("contiguous(band 2) = %d, %v", off, ok)
	}
}
