package gossip

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

func sampleMessage() *Message {
	return &Message{Kind: KindReply, From: "10.0.0.1:7801", IDs: []string{"10.0.0.2:7801", "10.0.0.3:7801"},
		Recs: sampleRecords()}
}

// TestMessageRoundtrip pins the OpGossip payload: every field of every
// encodable record survives, and what the encoder must leave out (an
// address-less record, a record in an unknown state) is left out.
func TestMessageRoundtrip(t *testing.T) {
	in := sampleMessage()
	out, err := decodeMessage(encodeMessage(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("roundtrip = %+v, want %+v", out, in)
	}
	lossy := &Message{Kind: KindPush, Recs: []Record{
		{State: StateAlive}, {Addr: "b:1", State: "zombie"},
		{Addr: "c:1", State: StateSuspect, Observers: []string{"d:1"}},
	}}
	out, err = decodeMessage(encodeMessage(lossy))
	if err != nil {
		t.Fatal(err)
	}
	want := &Message{Kind: KindPush, Recs: lossy.Recs[2:]}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("lossy roundtrip = %+v, want %+v", out, want)
	}
	for cut := 0; cut < len(encodeMessage(in)); cut++ {
		if _, err := decodeMessage(encodeMessage(in)[:cut]); err == nil {
			t.Fatalf("prefix of %d bytes decoded without error", cut)
		}
	}
}

// FuzzGossipMessage throws arbitrary bytes at the OpGossip payload
// decoder: it must never panic, must allocate no more than a small
// multiple of its input (a count prefix cannot reserve room the bytes
// do not back), and anything it accepts must re-encode to exactly the
// bytes it came from.
func FuzzGossipMessage(f *testing.F) {
	f.Add(encodeMessage(sampleMessage()))
	f.Add(encodeMessage(&Message{Kind: KindPull, From: "a:1", Recs: []Record{{Addr: "a:1", State: StateAlive}}}))
	f.Add([]byte{KindPush, 0, 0, 0, 0, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0xDB}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMessage(data)
		if alloc := bytesPerRun(100, func() { decodeMessage(data) }); alloc > 32*uint64(len(data))+4096 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		if again := encodeMessage(m); !bytes.Equal(again, data) {
			t.Fatalf("accepted message re-encodes to %x, was %x", again, data)
		}
	})
}

// bytesPerRun is testing.AllocsPerRun for bytes: what one call of f
// allocates, averaged over runs at GOMAXPROCS(1) so that allocations
// of the fuzzing engine's own goroutines wash out.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
