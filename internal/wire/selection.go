package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Run is a strided series of equal pieces of an extent: Count pieces of
// Len bytes each, piece i starting Off + i*Stride bytes into the extent.
type Run struct {
	Off, Len, Stride, Count int64
}

// Selection narrows extent number Extent of a READ or WRITE request to
// the pieces of Runs, and only those pieces travel, in order. For a
// read the server still sweeps the whole extent from the subfile and
// returns the pieces (server-side data sieving); for a write it stores
// each piece where it belongs and touches nothing between them. An
// extent without a selection moves whole.
type Selection struct {
	Extent int
	Runs   []Run
}

// Selections travel in the request's metadata (Request.Sel), a sequence
// of entries in ascending extent order:
//
//	u32 extent index, u32 run count (>= 1), then per run
//	u64 off, u64 len, u64 stride, u64 count
//
// All integers little-endian. A request without any selects nothing:
// every extent moves whole.
const (
	selHeaderLen = 4 + 4
	selRunLen    = 4 * 8
)

// AppendSelection appends the entry narrowing extent number ext to runs.
func AppendSelection(dst []byte, ext int, runs []Run) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(ext))
	dst = le.AppendUint32(dst, uint32(len(runs)))
	for _, r := range runs {
		dst = le.AppendUint64(dst, uint64(r.Off))
		dst = le.AppendUint64(dst, uint64(r.Len))
		dst = le.AppendUint64(dst, uint64(r.Stride))
		dst = le.AppendUint64(dst, uint64(r.Count))
	}
	return dst
}

// ParseSelections decodes a request's selections against its extents
// (already checked non-negative) and returns them together with the
// bytes that travel — a read's response, a write's payload: the
// selected bytes of narrowed extents plus the whole of the others.
// Every run must lie inside its extent with stride >= len >= 1, and
// runs must ascend without overlapping — so an extent never yields more
// bytes than it holds, and no two pieces of a write land on the same
// byte — and anything else, a truncated or trailing entry included, is
// an error.
func ParseSelections(data []byte, exts []Extent) ([]Selection, int64, error) {
	total := DataBytes(exts)
	if len(data) == 0 {
		return nil, total, nil
	}
	le := binary.LittleEndian
	sels := make([]Selection, 0, len(data)/(selHeaderLen+selRunLen))
	runs := make([]Run, 0, len(data)/selRunLen)
	next := 0 // lowest extent index the next entry may name
	for len(data) > 0 {
		if len(data) < selHeaderLen {
			return nil, 0, errors.New("wire: truncated selection")
		}
		ext, n := int(le.Uint32(data[0:4])), int(le.Uint32(data[4:8]))
		data = data[selHeaderLen:]
		if ext < next || ext >= len(exts) {
			return nil, 0, fmt.Errorf("wire: selection names extent %d, want %d..%d", ext, next, len(exts)-1)
		}
		if n == 0 || n > len(data)/selRunLen {
			return nil, 0, fmt.Errorf("wire: selection of %d runs in %d bytes", n, len(data))
		}
		next = ext + 1
		span := exts[ext].Len
		first := len(runs)
		end := int64(0) // end of the previous run
		for i := 0; i < n; i++ {
			r := Run{
				Off:    int64(le.Uint64(data[0:8])),
				Len:    int64(le.Uint64(data[8:16])),
				Stride: int64(le.Uint64(data[16:24])),
				Count:  int64(le.Uint64(data[24:32])),
			}
			data = data[selRunLen:]
			// Divisions, not products: no field can overflow the checks.
			if r.Len < 1 || r.Count < 1 || r.Stride < r.Len || r.Off < end ||
				r.Len > span || r.Off > span-r.Len || r.Count-1 > (span-r.Len-r.Off)/r.Stride {
				return nil, 0, fmt.Errorf("wire: invalid run %+v in extent of %d bytes", r, span)
			}
			end = r.Off + (r.Count-1)*r.Stride + r.Len
			total += r.Len * r.Count
			runs = append(runs, r)
		}
		total -= span
		sels = append(sels, Selection{Extent: ext, Runs: runs[first:len(runs):len(runs)]})
	}
	return sels, total, nil
}
