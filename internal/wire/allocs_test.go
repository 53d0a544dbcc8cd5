package wire

import (
	"bytes"
	"testing"
)

// TestDecodeAllocs pins the allocation ceilings of the two decoders
// every data-port request and response goes through.
func TestDecodeAllocs(t *testing.T) {
	frame := encodeRequestV2(t, 9, &Request{Op: OpRead, Path: "/smallio/f@g1", Gen: 1,
		Extents: []Extent{{Off: 8192, Len: 4096}}, TraceID: 1, SpanID: 2, Sampled: true})
	r := bytes.NewReader(frame)
	h, err := ReadFrameHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[FrameHeaderLen:]
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		if _, err := ReadRequestV2(r, h, nil); err != nil {
			t.Fatal(err)
		}
	}); n > 5 {
		t.Errorf("ReadRequestV2 of a 4 KiB read's REQ: %v allocs, want <= 5", n)
	}
	meta := appendResponseMeta(nil, &Response{N: 4096, Trace: []byte{2, 0, 0}}, 4096)
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeResponseMetaV2(meta); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("DecodeResponseMetaV2: %v allocs, want <= 1", n)
	}
}
