package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"dpfs/internal/codec/codectest"
)

// trailerSeeds are span trailers with fixed identities and times: a
// three-level tree with every field set and a path past 255 bytes, a
// lone untraced span, a trailer claiming 512 spans in three bytes, and
// garbage.
func trailerSeeds() [][]byte {
	at := time.Unix(0, 1_700_000_000_123_456_789)
	root := &Span{TraceID: 7, SpanID: 11, ParentID: 9, Name: "server.request", Op: "read",
		Path: strings.Repeat("/deep", 60), Server: "io-2", Bricks: 4, Bytes: 1 << 20, Start: at, Duration: 3 * time.Millisecond}
	sub := &Span{TraceID: 7, SpanID: 12, ParentID: 11, Name: "server.subfile", Extents: 3, Bytes: 4096,
		Swept: 29184, Start: at.Add(time.Microsecond), Duration: time.Millisecond}
	leaf := &Span{TraceID: 7, SpanID: 13, ParentID: 12, Name: "netsim.wait", Start: at.Add(2 * time.Microsecond)}
	sub.children = []*Span{leaf}
	root.children = []*Span{sub, {TraceID: 7, SpanID: 14, ParentID: 11, Name: "server.send", Start: at}}
	return [][]byte{
		EncodeSpans(root),
		EncodeSpans(&Span{Name: "x", Start: time.Unix(0, 0)}),
		{spanTrailerVersion, 0, 2},
		bytes.Repeat([]byte{0xA5}, 48),
	}
}

// TestSpanTrailerDigest is the differential equivalence gate of the
// span trailer decoder: it decodes trailerSeeds, every prefix of them
// and a fixed set of one-byte mutations, and the hash of what it
// accepted and what it decoded is pinned.
func TestSpanTrailerDigest(t *testing.T) {
	const want = "b3b0945c437b05b4"
	decode := func(b []byte) (any, error) { return DecodeSpans(b) }
	if got := codectest.Digest(codectest.Corpus(trailerSeeds(), 4000), decode); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}

// FuzzDecodeSpans throws arbitrary bytes at the span trailer decoder: it
// must never panic or allocate more than 64 bytes per input byte plus
// 1 KiB (a span count cannot reserve room the bytes do not back), and a
// trailer that decodes must decode to the same spans when each root is
// encoded and decoded again.
func FuzzDecodeSpans(f *testing.F) {
	for _, seed := range trailerSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if alloc := codectest.AllocBytes(func() { DecodeSpans(data) }); alloc > 64*uint64(len(data))+1024 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		roots, err := DecodeSpans(data)
		if err != nil {
			return
		}
		for _, root := range roots {
			again, err := DecodeSpans(EncodeSpans(root))
			if err != nil || len(again) != 1 {
				t.Fatalf("root %+v re-decodes as %d roots (%v)", root, len(again), err)
			}
			if !reflect.DeepEqual(again[0], root) {
				t.Fatalf("root %+v re-decodes as %+v", root, again[0])
			}
		}
	})
}
