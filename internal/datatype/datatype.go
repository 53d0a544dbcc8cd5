// Package datatype implements MPI-IO style derived datatypes, the
// mechanism DPFS adopts to let users express non-contiguous data
// conveniently (Section 6 of the paper, following Thakur et al.'s "A
// case for using MPI's derived datatypes to improve I/O performance").
//
// A Type describes a pattern of bytes inside a buffer. An access pairs
// two: a file type selecting bytes of a file's logical byte space and a
// memory type selecting bytes of the caller's buffer. The engine plans
// the one against the other run by run, so nothing is packed into or
// unpacked out of an intermediate buffer.
package datatype

import (
	"errors"
	"fmt"
	"math"
)

// Type describes a (possibly non-contiguous) byte layout in memory.
//
// Size is the number of payload bytes the type selects; Extent is the
// span of memory it covers, so that Count consecutive instances of the
// type start Extent bytes apart.
type Type interface {
	Size() int64
	Extent() int64

	// segments calls yield for every contiguous run (offset relative to
	// the instance origin plus base, length in bytes) in the type's
	// order.
	segments(base int64, yield func(off, n int64))
}

// Segment is one contiguous run of a datatype's layout.
type Segment struct {
	Off int64 // byte offset within the user buffer
	Len int64 // run length in bytes
}

// Segments materializes the type's layout as a list of contiguous runs
// in the type's order, runs adjacent in that order merged. The list is
// counted before it is filled, so it is allocated once.
func Segments(t Type) []Segment {
	out := make([]Segment, 0, numSegments(t))
	t.segments(0, func(off, n int64) {
		if len(out) > 0 && out[len(out)-1].Off+out[len(out)-1].Len == off {
			out[len(out)-1].Len += n
			return
		}
		out = append(out, Segment{Off: off, Len: n})
	})
	return out
}

// numSegments counts the runs Segments lists for a well-formed t. A
// subarray's runs follow from its shape: one per position of the
// dimensions before the last one it does not cover whole. Any other
// type is walked once.
func numSegments(t Type) int {
	if s, ok := t.(Subarray); ok {
		k := len(s.Dims) - 1
		for k > 0 && s.Count[k] == s.Dims[k] {
			k--
		}
		n := 1
		for _, c := range s.Count[:k] {
			n *= int(c)
		}
		return n
	}
	n, end := 0, int64(-1)
	t.segments(0, func(off, l int64) {
		if off != end {
			n++
		}
		end = off + l
	})
	return n
}

// Validate reports whether t is well formed, through every type it is
// built from: counts, block lengths, strides, displacements and sizes
// are non-negative, parallel slices have equal lengths, a subarray lies
// inside its array, and neither size nor extent overflows. Every run of
// a well-formed type lies inside [0, Extent()). The engine validates an
// access's types before it plans, so a malformed one is an error before
// any I/O, never a panic part way through it.
func Validate(t Type) error {
	_, _, err := measure(t)
	return err
}

// measure validates t and returns its size and extent.
func measure(t Type) (size, extent int64, err error) {
	var c checked
	negative := func() (int64, int64, error) {
		return 0, 0, fmt.Errorf("datatype: %T with a negative count, length, stride or displacement", t)
	}
	switch t := t.(type) {
	case nil:
		return 0, 0, errors.New("datatype: missing type")
	case Bytes:
		if t < 0 {
			return negative()
		}
		size, extent = int64(t), int64(t)
	case Contiguous:
		es, ee, err := measure(t.Elem)
		if err != nil {
			return 0, 0, err
		}
		if t.Count < 0 {
			return negative()
		}
		size, extent = c.mul(t.Count, es), c.mul(t.Count, ee)
	case Vector:
		es, ee, err := measure(t.Elem)
		if err != nil {
			return 0, 0, err
		}
		if t.Count < 0 || t.BlockLen < 0 || t.Stride < 0 {
			return negative()
		}
		if t.Count > 0 {
			size = c.mul(c.mul(t.Count, t.BlockLen), es)
			extent = c.mul(c.add(c.mul(t.Count-1, t.Stride), t.BlockLen), ee)
		}
	case Indexed:
		if len(t.BlockLens) != len(t.Displs) {
			return 0, 0, fmt.Errorf("datatype: indexed type with %d block lengths and %d displacements", len(t.BlockLens), len(t.Displs))
		}
		es, ee, err := measure(t.Elem)
		if err != nil {
			return 0, 0, err
		}
		var n int64
		for i, l := range t.BlockLens {
			if l < 0 || t.Displs[i] < 0 {
				return negative()
			}
			n, extent = c.add(n, l), max(extent, c.add(t.Displs[i], l))
		}
		size, extent = c.mul(n, es), c.mul(extent, ee)
	case Subarray:
		if t.ElemSize <= 0 || len(t.Dims) == 0 || len(t.Start) != len(t.Dims) || len(t.Count) != len(t.Dims) {
			return 0, 0, errors.New("datatype: subarray needs a positive ElemSize and Dims, Start and Count of one rank")
		}
		size, extent = t.ElemSize, t.ElemSize
		for d := range t.Dims {
			if t.Dims[d] <= 0 || t.Start[d] < 0 || t.Count[d] <= 0 || t.Start[d] > t.Dims[d]-t.Count[d] {
				return 0, 0, fmt.Errorf("datatype: subarray dim %d out of range", d)
			}
			size, extent = c.mul(size, t.Count[d]), c.mul(extent, t.Dims[d])
		}
	case Struct:
		if len(t.Displs) != len(t.Types) {
			return 0, 0, fmt.Errorf("datatype: struct with %d displacements and %d types", len(t.Displs), len(t.Types))
		}
		for i, ft := range t.Types {
			fs, fe, err := measure(ft)
			if err != nil {
				return 0, 0, err
			}
			if t.Displs[i] < 0 {
				return negative()
			}
			size, extent = c.add(size, fs), max(extent, c.add(t.Displs[i], fe))
		}
	default:
		return 0, 0, fmt.Errorf("datatype: unknown type %T", t)
	}
	if c.overflow {
		return 0, 0, errors.New("datatype: type size or extent overflows an int64")
	}
	return size, extent, nil
}

// sizeOf and extentOf measure a constructed type; a malformed one
// measures 0 (Validate says why).
func sizeOf(t Type) int64 {
	size, _, _ := measure(t)
	return size
}

func extentOf(t Type) int64 {
	_, extent, _ := measure(t)
	return extent
}

// checked is arithmetic on non-negative int64s that notes an overflow.
type checked struct{ overflow bool }

func (c *checked) mul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		c.overflow = true
		return 0
	}
	return a * b
}

func (c *checked) add(a, b int64) int64 {
	if b > math.MaxInt64-a {
		c.overflow = true
		return 0
	}
	return a + b
}

// --- Base and constructed types -------------------------------------

// Bytes is the elementary contiguous type of n bytes (MPI_BYTE with a
// count folded in).
type Bytes int64

// Size implements Type.
func (b Bytes) Size() int64 { return int64(b) }

// Extent implements Type.
func (b Bytes) Extent() int64 { return int64(b) }

func (b Bytes) segments(base int64, yield func(off, n int64)) {
	if b > 0 {
		yield(base, int64(b))
	}
}

// Contiguous is Count consecutive instances of Elem
// (MPI_Type_contiguous).
type Contiguous struct {
	Count int64
	Elem  Type
}

// Size implements Type.
func (c Contiguous) Size() int64 { return sizeOf(c) }

// Extent implements Type.
func (c Contiguous) Extent() int64 { return extentOf(c) }

func (c Contiguous) segments(base int64, yield func(off, n int64)) {
	if b, ok := c.Elem.(Bytes); ok {
		// Count instances of a run are one run.
		Bytes(c.Count*int64(b)).segments(base, yield)
		return
	}
	ext := c.Elem.Extent()
	for i := int64(0); i < c.Count; i++ {
		c.Elem.segments(base+i*ext, yield)
	}
}

// Vector is Count blocks of BlockLen elements, the starts of
// consecutive blocks Stride elements apart (MPI_Type_vector). Stride is
// measured in units of Elem.Extent().
type Vector struct {
	Count    int64
	BlockLen int64
	Stride   int64
	Elem     Type
}

// Size implements Type.
func (v Vector) Size() int64 { return sizeOf(v) }

// Extent implements Type.
func (v Vector) Extent() int64 { return extentOf(v) }

func (v Vector) segments(base int64, yield func(off, n int64)) {
	ext := v.Elem.Extent()
	blk := Contiguous{Count: v.BlockLen, Elem: v.Elem}
	for i := int64(0); i < v.Count; i++ {
		blk.segments(base+i*v.Stride*ext, yield)
	}
}

// Indexed is a sequence of blocks of varying length at varying
// displacements, both measured in units of Elem.Extent()
// (MPI_Type_indexed).
type Indexed struct {
	BlockLens []int64
	Displs    []int64
	Elem      Type
}

// Size implements Type.
func (ix Indexed) Size() int64 { return sizeOf(ix) }

// Extent implements Type.
func (ix Indexed) Extent() int64 { return extentOf(ix) }

func (ix Indexed) segments(base int64, yield func(off, n int64)) {
	ext := ix.Elem.Extent()
	for i := range ix.BlockLens {
		Contiguous{Count: ix.BlockLens[i], Elem: ix.Elem}.segments(base+ix.Displs[i]*ext, yield)
	}
}

// Subarray selects the hyper-rectangle [Start, Start+Count) of a
// row-major N-dimensional array of Dims elements, each ElemSize bytes
// (MPI_Type_create_subarray). Its extent is the whole array.
type Subarray struct {
	ElemSize int64
	Dims     []int64
	Start    []int64
	Count    []int64
}

// Size implements Type.
func (s Subarray) Size() int64 { return sizeOf(s) }

// Extent implements Type.
func (s Subarray) Extent() int64 { return extentOf(s) }

func (s Subarray) segments(base int64, yield func(off, n int64)) {
	nd := len(s.Dims)
	if nd == 0 {
		return
	}
	run := s.Count[nd-1] * s.ElemSize
	pos := make([]int64, nd)
	for {
		off := int64(0)
		for d := 0; d < nd; d++ {
			off = off*s.Dims[d] + s.Start[d] + pos[d]
		}
		yield(base+off*s.ElemSize, run)
		d := nd - 2
		for d >= 0 {
			pos[d]++
			if pos[d] < s.Count[d] {
				break
			}
			pos[d] = 0
			d--
		}
		if d < 0 {
			return
		}
	}
}

// Struct is a heterogeneous sequence of fields at explicit byte
// displacements (MPI_Type_create_struct).
type Struct struct {
	Displs []int64 // byte displacement of each field
	Types  []Type
}

// Size implements Type.
func (st Struct) Size() int64 { return sizeOf(st) }

// Extent implements Type.
func (st Struct) Extent() int64 { return extentOf(st) }

func (st Struct) segments(base int64, yield func(off, n int64)) {
	for i, t := range st.Types {
		t.segments(base+st.Displs[i], yield)
	}
}
