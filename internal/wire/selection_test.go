package wire

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSelectionRoundtrip: random valid selections over random extents
// parse back as written, and the byte count ParseSelections reports is
// the selected bytes of narrowed extents plus the whole of the rest.
func TestSelectionRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for iter := 0; iter < 500; iter++ {
		exts := make([]Extent, 1+r.Intn(6))
		var payload []byte
		var sels []Selection
		var total int64
		for i := range exts {
			exts[i] = Extent{Off: r.Int63n(1 << 40), Len: r.Int63n(5000)}
			if exts[i].Len == 0 || r.Intn(3) == 0 {
				total += exts[i].Len
				continue
			}
			// Runs laid out front to back in what is left of the extent.
			var runs []Run
			for pos, left := int64(0), exts[i].Len; left > 0 && len(runs) < 4; {
				run := Run{Off: pos + r.Int63n(left), Count: 1}
				left = exts[i].Len - run.Off
				run.Len = 1 + r.Int63n(min(left, 64))
				run.Stride = run.Len + r.Int63n(100)
				run.Count = 1 + r.Int63n((left-run.Len)/run.Stride+1)
				runs = append(runs, run)
				pos = run.Off + (run.Count-1)*run.Stride + run.Len
				left = exts[i].Len - pos
				total += run.Len * run.Count
			}
			sels = append(sels, Selection{Extent: i, Runs: runs})
			payload = AppendSelection(payload, i, runs)
		}
		got, n, err := ParseSelections(payload, exts)
		if err != nil {
			t.Fatalf("iter %d: %v (exts %v, selections %+v)", iter, err, exts, sels)
		}
		if n != total || !reflect.DeepEqual(got, sels) {
			t.Fatalf("iter %d: parsed %+v selecting %d bytes, wrote %+v selecting %d", iter, got, n, sels, total)
		}
	}
	// No payload, no selection: every extent whole, nothing allocated.
	exts := []Extent{{Off: 0, Len: 10}, {Off: 100, Len: 5}}
	if got, n, err := ParseSelections(nil, exts); got != nil || n != 15 || err != nil {
		t.Errorf("empty payload parsed as %v, %d, %v", got, n, err)
	}
}
