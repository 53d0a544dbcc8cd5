package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The gossip server-table delta piggybacks on responses the server
// was sending anyway (DESIGN.md §14). These tests pin its carrying
// contract: a well-formed delta roundtrips beside whatever else the
// response holds, and a truncated, corrupt or oversized section
// silently yields a delta-less response — it must never fail the RPC
// that carried it. The two V1-named tests keep the names they had on
// the retired footer encoding (the suite's floor list pins test ids);
// they now pin, through the stream reader, what they used to pin there
// and the V2-named tests, which work on the bare RESP body, do not.

func deltaBytes() []byte {
	// Opaque at the wire layer; gossip.DecodeDelta interprets it.
	return []byte("DPgd\x01----delta-payload----")
}

// TestResponseDeltaRoundtripV1: Data, Trace, Err and Delta all survive
// together, and each is independent of the others.
func TestResponseDeltaRoundtripV1(t *testing.T) {
	cases := []struct {
		name string
		resp Response
	}{
		{"delta alone", Response{N: 1, Delta: deltaBytes()}},
		{"delta with data", Response{Data: []byte("payload"), Delta: deltaBytes()}},
		{"delta with trace", Response{Trace: []byte{9, 9, 9}, Delta: deltaBytes()}},
		{"delta with data and trace", Response{Data: []byte("d"), Trace: []byte{1, 2}, Delta: deltaBytes()}},
		{"delta with error", Response{Err: "boom", Delta: deltaBytes()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReadResponseV2Into(bytes.NewReader(encodeResponseV2(t, 5, &tc.resp)), 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Delta, tc.resp.Delta) {
				t.Fatalf("delta = %q, want %q", got.Delta, tc.resp.Delta)
			}
			if !bytes.Equal(got.Data, tc.resp.Data) || !bytes.Equal(got.Trace, tc.resp.Trace) ||
				got.Err != tc.resp.Err {
				t.Fatalf("carrying response corrupted: %+v", got)
			}
		})
	}
}

// TestResponseDeltaFooterBestEffortV1 pins the failure half of the
// contract on a whole response stream: bytes after the trace that do
// not form an exact delta section are dropped, never an RPC error, and
// the payload and trace beside them arrive intact.
func TestResponseDeltaFooterBestEffortV1(t *testing.T) {
	base := &Response{Data: []byte("payload"), Trace: []byte{5, 5}}

	// grow appends extra to the RESP frame closing base's encoding.
	grow := func(t *testing.T, extra []byte) []byte {
		out := append(encodeResponseV2(t, 5, base), extra...)
		lenOff := FrameHeaderLen + len(base.Data) + 8 // the RESP header's length field
		binary.LittleEndian.PutUint32(out[lenOff:],
			binary.LittleEndian.Uint32(out[lenOff:])+uint32(len(extra)))
		return out
	}
	check := func(t *testing.T, frames []byte) {
		t.Helper()
		got, err := ReadResponseV2Into(bytes.NewReader(frames), 5, nil)
		if err != nil {
			t.Fatalf("malformed section failed the response: %v", err)
		}
		if got.Delta != nil {
			t.Fatalf("malformed section produced a delta: %q", got.Delta)
		}
		if !bytes.Equal(got.Data, base.Data) || !bytes.Equal(got.Trace, base.Trace) {
			t.Fatalf("carrying response corrupted: %+v", got)
		}
	}

	t.Run("magic with oversized length", func(t *testing.T) {
		sec := binary.LittleEndian.AppendUint32(nil, 1<<20) // claims more than the body holds
		check(t, grow(t, append(sec, deltaBytes()...)))
	})
	t.Run("magic with zero length", func(t *testing.T) {
		check(t, grow(t, []byte{0, 0, 0, 0}))
	})
	t.Run("truncated footer", func(t *testing.T) {
		// The section's length field cut short: fewer than four bytes.
		check(t, grow(t, []byte{byte(len(deltaBytes())), 0}))
	})
	t.Run("trace alone is never misread", func(t *testing.T) {
		check(t, encodeResponseV2(t, 5, base))
	})
}

// TestResponseDeltaRoundtripV2 pins the section: the delta rides the
// RESP metadata and coexists with streamed data and the trace.
func TestResponseDeltaRoundtripV2(t *testing.T) {
	var buf bytes.Buffer
	resp := &Response{N: 7, Data: []byte("payload"), Trace: []byte{3, 3}, Delta: deltaBytes()}
	if err := WriteResponseV2(&buf, 11, resp, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponseV2Into(bytes.NewReader(buf.Bytes()), 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Delta, resp.Delta) {
		t.Fatalf("delta = %q, want %q", got.Delta, resp.Delta)
	}
	if !bytes.Equal(got.Data, resp.Data) || !bytes.Equal(got.Trace, resp.Trace) || got.N != resp.N {
		t.Fatalf("carrying response corrupted: %+v", got)
	}
}

// TestResponseDeltaBestEffortV2 pins that trailing RESP-metadata
// bytes that do not form an exact delta section are ignored, not an
// error — the forward-compatibility contract that lets older
// responses and future extensions coexist.
func TestResponseDeltaBestEffortV2(t *testing.T) {
	resp := &Response{N: 7, Trace: []byte{3, 3}}
	cases := []struct {
		name  string
		extra []byte
	}{
		{"short garbage", []byte{0xAB}},
		{"length without body", []byte{0xFF, 0xFF, 0x00, 0x00}},
		{"length overrunning body", append([]byte{0xFF, 0xFF, 0xFF, 0x7F}, deltaBytes()...)},
		{"zero length with body", append([]byte{0, 0, 0, 0}, 'x', 'y')},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := append(appendResponseMeta(nil, resp, 0), tc.extra...)
			got, _, err := DecodeResponseMetaV2(body)
			if err != nil {
				t.Fatalf("trailing bytes failed the response: %v", err)
			}
			if got.Delta != nil {
				t.Fatalf("trailing bytes produced a delta: %q", got.Delta)
			}
			if got.N != resp.N || !bytes.Equal(got.Trace, resp.Trace) {
				t.Fatalf("carrying response corrupted: %+v", got)
			}
		})
	}

	t.Run("truncation inside the delta still errors", func(t *testing.T) {
		full := appendResponseMeta(nil, &Response{N: 7, Delta: deltaBytes()}, 0)
		// Cutting the body mid-delta invalidates the section (length no
		// longer matches) but must not fail the decode.
		got, _, err := DecodeResponseMetaV2(full[:len(full)-3])
		if err != nil {
			t.Fatalf("truncated delta failed the response: %v", err)
		}
		if got.Delta != nil {
			t.Fatal("truncated delta section still surfaced")
		}
	})
}
