package gossip

import (
	"bytes"
	"reflect"
	"testing"

	"dpfs/internal/codec/codectest"
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

// messageSeeds are FuzzGossipMessage's seeds.
func messageSeeds() [][]byte {
	return [][]byte{
		encodeMessage(sampleMessage()),
		encodeMessage(&Message{Kind: KindPull, From: "a:1", Recs: []Record{{Addr: "a:1", State: StateAlive}}}),
		{KindPush, 0, 0, 0, 0, 0xFF, 0xFF},
		bytes.Repeat([]byte{0xDB}, 32),
	}
}

// FuzzGossipMessage throws arbitrary bytes at the OpGossip payload
// decoder: it must never panic, must allocate no more than a small
// multiple of its input (a count prefix cannot reserve room the bytes
// do not back), and anything it accepts must re-encode to exactly the
// bytes it came from.
func FuzzGossipMessage(f *testing.F) {
	for _, seed := range messageSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMessage(data)
		if alloc := codectest.AllocBytes(func() { decodeMessage(data) }); alloc > 32*uint64(len(data))+4096 {
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

// TestDecoderDigests is the differential equivalence gate of the delta
// and message decoders: each decodes its fuzzer's seeds, every prefix
// of them and a fixed set of one-byte mutations, and the hash of what
// it accepted and what it decoded is pinned.
func TestDecoderDigests(t *testing.T) {
	cases := []struct {
		name   string
		seeds  [][]byte
		decode func([]byte) (any, error)
		want   string
	}{
		{"delta", deltaSeeds(), func(b []byte) (any, error) { return DecodeDelta(b) }, "9b63219939364c72"},
		{"message", messageSeeds(), func(b []byte) (any, error) { return decodeMessage(b) }, "8b280b14b43e0a0e"},
	}
	for _, c := range cases {
		if got := codectest.Digest(codectest.Corpus(c.seeds, 2000), c.decode); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
