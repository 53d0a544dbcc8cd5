package gossip

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"dpfs/internal/codec/codectest"
)

func sampleRecords() []Record {
	return []Record{
		{Addr: "10.0.0.1:7801", Name: "io0", Inc: 2, State: StateAlive, DiskErrors: 17},
		{Addr: "10.0.0.2:7801", Name: "io1", Inc: 0, State: StateSuspect, CopyPeerErrors: 3,
			Observers: []string{"10.0.0.1:7801"}},
		{Addr: "10.0.0.3:7801", Name: "io2", Inc: 5, State: StateDead},
		{Addr: "10.0.0.4:7801", Name: "io3", Inc: 1, State: StateDraining},
	}
}

// TestDeltaRoundtrip pins the encoding: identity, state and
// incarnation survive; observer sets and health counters are dropped
// by design.
func TestDeltaRoundtrip(t *testing.T) {
	in := sampleRecords()
	data := EncodeDelta(in)
	if data == nil {
		t.Fatal("empty encoding")
	}
	out, err := DecodeDelta(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		want := Record{Addr: in[i].Addr, Name: in[i].Name, Inc: in[i].Inc, State: in[i].State}
		if !reflect.DeepEqual(out[i], want) {
			t.Fatalf("record %d = %+v, want %+v", i, out[i], want)
		}
	}
}

// TestDeltaDecodeRobustness is the satellite-task table: truncated,
// corrupt and oversized deltas must all yield a decode error (which
// the carrying RPC treats as "no delta") and never a panic.
func TestDeltaDecodeRobustness(t *testing.T) {
	valid := EncodeDelta(sampleRecords())

	t.Run("every prefix truncation", func(t *testing.T) {
		for cut := 0; cut < len(valid); cut++ {
			if _, err := DecodeDelta(valid[:cut]); err == nil {
				t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(valid))
			}
		}
	})

	mutants := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"unknown version", func(b []byte) []byte { b[4] = 99; return b }},
		{"zero count", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[5:7], 0)
			return b
		}},
		{"count beyond cap", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[5:7], MaxDeltaRecords+1)
			return b
		}},
		{"count beyond body", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[5:7], 200)
			return b
		}},
		{"unknown state byte", func(b []byte) []byte { b[7] = 0xEE; return b }},
		{"address length overruns", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[7+9:], 0xFFFF) // state, inc, then the length
			return b
		}},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xAB) }},
		{"oversized buffer", func(b []byte) []byte {
			return append(b, make([]byte, MaxDeltaBytes)...)
		}},
	}
	for _, tc := range mutants {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), valid...))
			if _, err := DecodeDelta(b); err == nil {
				t.Fatal("corrupt delta decoded without error")
			}
		})
	}

	t.Run("empty input", func(t *testing.T) {
		if _, err := DecodeDelta(nil); err == nil {
			t.Fatal("nil delta decoded without error")
		}
	})
}

// TestDeltaEncodeSkipsUnencodable pins that records without an
// address or with an unknown state are skipped, and an all-skipped
// batch encodes to nil.
func TestDeltaEncodeSkipsUnencodable(t *testing.T) {
	if got := EncodeDelta([]Record{{Addr: "", State: StateAlive}, {Addr: "a:1", State: "zombie"}}); got != nil {
		t.Fatalf("unencodable records produced %d bytes", len(got))
	}
	if got := EncodeDelta(nil); got != nil {
		t.Fatal("nil records produced a delta")
	}
}

// TestDeltaTruncationPrefersSevere pins that when a delta overflows
// the record cap, non-alive records survive the cut.
func TestDeltaTruncationPrefersSevere(t *testing.T) {
	recs := make([]Record, 0, MaxDeltaRecords+10)
	for i := 0; i < MaxDeltaRecords+9; i++ {
		recs = append(recs, Record{Addr: addrN(i), Name: "x", State: StateAlive})
	}
	recs = append(recs, Record{Addr: "dead:1", Name: "dead", Inc: 1, State: StateDead})
	out, err := DecodeDelta(EncodeDelta(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != MaxDeltaRecords {
		t.Fatalf("got %d records, want cap %d", len(out), MaxDeltaRecords)
	}
	if out[0].State != StateDead || out[0].Addr != "dead:1" {
		t.Fatalf("severe record lost in truncation; first = %+v", out[0])
	}
}

func addrN(i int) string {
	return "10.0." + string(rune('a'+i%26)) + ":7801"
}

// TestDeltaSince pins the per-connection versioning: a delta covers
// exactly the records that changed after the caller's version, and
// an unchanged table yields nil.
func TestDeltaSince(t *testing.T) {
	node, err := NewNode(Config{
		Self:      Record{Addr: "a:1", Name: "a"},
		Seed:      1,
		Transport: NewMemNet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	data, v1 := node.DeltaSince(0)
	recs, err := DecodeDelta(data)
	if err != nil || len(recs) != 1 || recs[0].Addr != "a:1" {
		t.Fatalf("initial delta = %v (%v)", recs, err)
	}
	if data, v := node.DeltaSince(v1); data != nil || v != v1 {
		t.Fatalf("unchanged table produced a delta (%d bytes)", len(data))
	}
	node.Inject(Record{Addr: "b:1", Name: "b", State: StateSuspect, Inc: 0,
		Observers: []string{"c:1"}})
	data, v2 := node.DeltaSince(v1)
	if v2 == v1 {
		t.Fatal("version did not advance")
	}
	recs, err = DecodeDelta(data)
	if err != nil || len(recs) != 1 || recs[0].Addr != "b:1" || recs[0].State != StateSuspect {
		t.Fatalf("incremental delta = %v (%v)", recs, err)
	}
}

// deltaSeeds are FuzzDecodeDelta's seeds.
func deltaSeeds() [][]byte {
	return [][]byte{
		EncodeDelta(sampleRecords()),
		EncodeDelta([]Record{{Addr: "a:1", State: StateAlive}}),
		[]byte("DPgd\x02\x00\x00"),
		bytes.Repeat([]byte{0xDB}, 32),
	}
}

// FuzzDecodeDelta throws arbitrary bytes at the delta decoder: it
// must never panic or allocate more than FuzzGossipMessage's bound, and
// anything it accepts must re-encode and decode to the same records.
func FuzzDecodeDelta(f *testing.F) {
	for _, seed := range deltaSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if alloc := codectest.AllocBytes(func() { DecodeDelta(data) }); alloc > 32*uint64(len(data))+4096 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		recs, err := DecodeDelta(data)
		if err != nil {
			return
		}
		again, err := DecodeDelta(EncodeDelta(recs))
		if err != nil {
			t.Fatalf("re-encoded accepted delta rejected: %v", err)
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", recs, again)
		}
	})
}
