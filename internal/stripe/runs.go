package stripe

// Run is a strided series of equal pieces of a byte range: Count pieces
// of Len bytes each, piece i starting at Off + i*Stride. A lone piece
// has Count 1 and Stride Len.
type Run struct {
	Off, Len, Stride, Count int64
}

// Runs folds one brick's segments, sorted by BrickOff, into the strided
// runs that select them out of the brick range [lo, hi) covering them.
// Offsets are relative to lo, pieces adjacent in the brick merge, and
// equal pieces at a constant stride fold into one run — a rectangular
// piece of a tile, a chunk or whole rows is one run however many rows
// it crosses; irregular pieces degrade to one run each. The runs are
// ascending and disjoint, and expanding them in order visits the bytes
// in brick order.
//
// Runs returns no runs in two cases, and says which. With overlap false
// there is nothing to select: the pieces fill the range, which travels
// as it is. With overlap true two pieces share bytes and so have no
// such description: a read moves the range whole and picks the pieces
// out of it, a write has to send them one by one.
func Runs(segs []Segment, lo, hi int64) (runs []Run, overlap bool) {
	var pOff, pLen int64 // the merged piece being grown; pLen 0 is none
	fold := func() {
		if k := len(runs); k > 0 && runs[k-1].Len == pLen {
			r := &runs[k-1]
			if r.Count == 1 {
				r.Stride, r.Count = pOff-r.Off, 2
				return
			}
			if pOff == r.Off+r.Count*r.Stride {
				r.Count++
				return
			}
		}
		runs = append(runs, Run{Off: pOff, Len: pLen, Stride: pLen, Count: 1})
	}
	for _, s := range segs {
		switch off := s.BrickOff - lo; {
		case pLen == 0:
			pOff, pLen = off, s.Len
		case off == pOff+pLen:
			pLen += s.Len
		case off < pOff+pLen:
			return nil, true
		default:
			fold()
			pOff, pLen = off, s.Len
		}
	}
	if pLen == 0 || len(runs) == 0 && pLen == hi-lo {
		return nil, false
	}
	fold()
	return runs, false
}
