package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"dpfs/internal/codec/codectest"
)

// digestMutations is how many one-byte mutations of the seeds each
// differential corpus adds.
const digestMutations = 2000

var errOversized = errors.New("announces more than the input holds")

// boundedInput refuses, before any decoder sees it, a stream of frames
// one of whose headers announces a body longer than the bytes left: a
// decoder may size a buffer from the header, and the corpus must not
// make the test allocate what no input backs.
func boundedInput(raw []byte) error {
	for p := 0; p+FrameHeaderLen <= len(raw); {
		n := int(binary.LittleEndian.Uint32(raw[p+8:]))
		p += FrameHeaderLen
		if n > len(raw)-p {
			return errOversized
		}
		p += n
	}
	return nil
}

// boundedAlloc is a payload allocator that refuses, by panicking
// (recovered by decodeBounded), a payload longer than the input.
func boundedAlloc(raw []byte) func(int64) []byte {
	return func(n int64) []byte {
		if n > int64(len(raw)) {
			panic(errOversized)
		}
		return make([]byte, n)
	}
}

// decodeBounded runs decode, turning boundedAlloc's refusal into an
// error.
func decodeBounded(decode func() (any, error)) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			if r != errOversized {
				panic(r)
			}
			v, err = nil, errOversized
		}
	}()
	return decode()
}

// TestDecoderDigests is the differential equivalence gate of the data
// port's decoders: each decodes its fuzzer's seeds, every prefix of
// them and a fixed set of one-byte mutations, and the hash of what it
// accepted and what it decoded is pinned. A change to a decoder's code
// that moves a hash changed its behaviour.
func TestDecoderDigests(t *testing.T) {
	selExts := []Extent{{Off: 0, Len: 4096}, {Off: 8192, Len: 100}, {Off: 1 << 20, Len: 1 << 16}}
	selSeeds := [][]byte{
		AppendSelection(nil, 0, []Run{{Off: 0, Len: 512, Stride: 1024, Count: 4}}),
		AppendSelection(AppendSelection(nil, 0, []Run{{Off: 1, Len: 1, Stride: 2, Count: 3}, {Off: 100, Len: 8, Stride: 8, Count: 2}}),
			2, []Run{{Off: 0, Len: 10, Stride: 100, Count: 5}}),
		AppendSelection(nil, 1, []Run{{Off: 0, Len: 4, Stride: 4, Count: 25}}),
	}
	cases := []struct {
		name   string
		seeds  [][]byte
		decode func([]byte) (any, error)
		want   string
	}{
		{"request meta", requestMetaSeeds(t), func(b []byte) (any, error) {
			return decodeBounded(func() (any, error) {
				h := FrameHeader{Kind: FrameReq, Tag: 1, Len: uint32(len(b))}
				return ReadRequestV2(bytes.NewReader(b), h, boundedAlloc(b))
			})
		}, "10b1b4899ada2606"},
		{"request", requestV2Seeds(t), func(b []byte) (any, error) {
			if err := boundedInput(b); err != nil {
				return nil, err
			}
			return decodeBounded(func() (any, error) {
				r := bytes.NewReader(b)
				h, err := ReadFrameHeader(r)
				if err != nil {
					return nil, err
				}
				return ReadRequestV2(r, h, boundedAlloc(b))
			})
		}, "69b887ff6f8adbc4"},
		{"response meta", responseMetaSeeds(), func(b []byte) (any, error) {
			resp, n, err := DecodeResponseMetaV2(b)
			return []any{resp, n}, err
		}, "449019e1e30725b5"},
		{"response", responseV2Seeds(t), func(b []byte) (any, error) {
			if err := boundedInput(b); err != nil {
				return nil, err
			}
			return ReadResponseV2Into(bytes.NewReader(b), 1, nil)
		}, "ee679c6843b6f89f"},
		{"frame header", frameHeaderSeeds(), func(b []byte) (any, error) {
			return ReadFrameHeader(bytes.NewReader(b))
		}, "1c3e048d35334693"},
		{"selections", selSeeds, func(b []byte) (any, error) {
			sels, total, err := ParseSelections(b, selExts)
			return []any{sels, total}, err
		}, "0d9e069005aad5f6"},
	}
	for _, c := range cases {
		if got := codectest.Digest(codectest.Corpus(c.seeds, digestMutations), c.decode); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
