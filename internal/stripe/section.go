package stripe

import (
	"errors"
	"fmt"
)

// Section is a hyper-rectangular region of an N-dimensional array: for
// each dimension d it covers indices [Start[d], Start[d]+Count[d]).
// When a section is read or written, the data moves through a packed
// buffer holding the section's elements in row-major order of the
// section itself (the same convention as an MPI subarray datatype).
type Section struct {
	Start []int64
	Count []int64
}

// NewSection builds a section from start/count slices (copied).
func NewSection(start, count []int64) Section {
	return Section{Start: append([]int64(nil), start...), Count: append([]int64(nil), count...)}
}

// FullSection returns the section covering the entire array.
func FullSection(dims []int64) Section {
	return Section{Start: make([]int64, len(dims)), Count: append([]int64(nil), dims...)}
}

// NumElems returns the number of elements in the section.
func (s Section) NumElems() int64 { return prod(s.Count) }

// Bytes returns the number of bytes of the section's packed buffer for
// the given element size.
func (s Section) Bytes(elemSize int64) int64 { return s.NumElems() * elemSize }

// Validate checks the section against the array dimensions.
func (s Section) Validate(dims []int64) error {
	if len(s.Start) != len(dims) || len(s.Count) != len(dims) {
		return errors.New("stripe: section rank does not match array rank")
	}
	for d := range dims {
		if s.Start[d] < 0 || s.Count[d] <= 0 {
			return fmt.Errorf("stripe: invalid section dim %d: start=%d count=%d", d, s.Start[d], s.Count[d])
		}
		if s.Start[d]+s.Count[d] > dims[d] {
			return fmt.Errorf("stripe: section exceeds array in dim %d: start=%d count=%d dim=%d",
				d, s.Start[d], s.Count[d], dims[d])
		}
	}
	return nil
}

// String renders the section like [0:4,8:16).
func (s Section) String() string {
	out := "["
	for d := range s.Start {
		if d > 0 {
			out += ","
		}
		out += fmt.Sprintf("%d:%d", s.Start[d], s.Start[d]+s.Count[d])
	}
	return out + ")"
}

// iterOuter invokes f for every position of the outer (all but last)
// dimensions of count, in row-major order. pos has len(count) entries;
// pos[len-1] is always 0 and f is expected to treat the last dimension
// as a contiguous run. The pos slice is reused between calls.
func iterOuter(count []int64, f func(pos []int64)) {
	nd := len(count)
	pos := make([]int64, nd)
	for {
		f(pos)
		// Odometer increment over dims [0, nd-2].
		d := nd - 2
		for d >= 0 {
			pos[d]++
			if pos[d] < count[d] {
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
