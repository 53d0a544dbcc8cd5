package datatype

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func seq(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)
	}
	return out
}

// pack gathers the bytes t selects out of mem, in the type's order.
func pack(t Type, mem []byte) []byte {
	var out []byte
	for _, s := range Segments(t) {
		out = append(out, mem[s.Off:s.Off+s.Len]...)
	}
	return out
}

// unpack scatters packed into mem where t selects.
func unpack(t Type, packed, mem []byte) {
	for _, s := range Segments(t) {
		packed = packed[copy(mem[s.Off:s.Off+s.Len], packed):]
	}
}

func TestBytes(t *testing.T) {
	b := Bytes(8)
	if b.Size() != 8 || b.Extent() != 8 {
		t.Fatalf("size/extent = %d/%d", b.Size(), b.Extent())
	}
	mem := seq(8)
	if !bytes.Equal(pack(b, mem), mem) {
		t.Fatal("bytes pack should be identity")
	}
	if segs := Segments(b); len(segs) != 1 || segs[0] != (Segment{0, 8}) {
		t.Errorf("Bytes should be one run, have %v", segs)
	}
	if segs := Segments(Bytes(0)); len(segs) != 0 {
		t.Errorf("zero-length type has %d segments", len(segs))
	}
}

func TestContiguous(t *testing.T) {
	c := Contiguous{Count: 3, Elem: Bytes(4)}
	if c.Size() != 12 || c.Extent() != 12 {
		t.Fatalf("size/extent = %d/%d", c.Size(), c.Extent())
	}
	segs := Segments(c)
	if len(segs) != 1 || segs[0] != (Segment{0, 12}) {
		t.Errorf("segments = %v", segs)
	}
}

func TestVector(t *testing.T) {
	// Every other 2-byte block out of a 10-byte buffer: offsets 0-1,
	// 4-5, 8-9.
	v := Vector{Count: 3, BlockLen: 2, Stride: 4, Elem: Bytes(1)}
	if v.Size() != 6 {
		t.Fatalf("size = %d", v.Size())
	}
	if v.Extent() != 10 {
		t.Fatalf("extent = %d", v.Extent())
	}
	if segs := Segments(v); len(segs) != 3 {
		t.Errorf("strided vector is %d runs, want 3", len(segs))
	}
	mem := seq(10)
	packed := pack(v, mem)
	want := []byte{0, 1, 4, 5, 8, 9}
	if !bytes.Equal(packed, want) {
		t.Fatalf("packed = %v, want %v", packed, want)
	}

	out := make([]byte, 10)
	unpack(v, packed, out)
	wantOut := []byte{0, 1, 0, 0, 4, 5, 0, 0, 8, 9}
	if !bytes.Equal(out, wantOut) {
		t.Fatalf("unpacked = %v, want %v", out, wantOut)
	}

	if (Vector{Count: 0, BlockLen: 2, Stride: 4, Elem: Bytes(1)}).Extent() != 0 {
		t.Error("empty vector extent should be 0")
	}
}

func TestVectorOfVectors(t *testing.T) {
	// A column of a 4x4 byte matrix (stride 4, blocklen 1) wrapped in a
	// contiguous count of 1; then two such columns via Struct.
	col := Vector{Count: 4, BlockLen: 1, Stride: 4, Elem: Bytes(1)}
	twoCols := Struct{Displs: []int64{0, 1}, Types: []Type{col, col}}
	packed := pack(twoCols, seq(16))
	want := []byte{0, 4, 8, 12, 1, 5, 9, 13}
	if !bytes.Equal(packed, want) {
		t.Fatalf("packed = %v, want %v", packed, want)
	}
	if twoCols.Extent() != 14 {
		t.Errorf("extent = %d, want 14", twoCols.Extent())
	}
}

func TestIndexed(t *testing.T) {
	ix := Indexed{BlockLens: []int64{2, 1, 3}, Displs: []int64{0, 4, 7}, Elem: Bytes(1)}
	if ix.Size() != 6 {
		t.Fatalf("size = %d", ix.Size())
	}
	if ix.Extent() != 10 {
		t.Fatalf("extent = %d", ix.Extent())
	}
	packed := pack(ix, seq(10))
	want := []byte{0, 1, 4, 7, 8, 9}
	if !bytes.Equal(packed, want) {
		t.Fatalf("packed = %v, want %v", packed, want)
	}
}

func TestSubarray(t *testing.T) {
	// 4x4 matrix of 2-byte elements; select rows 1-2, cols 1-2.
	s := Subarray{ElemSize: 2, Dims: []int64{4, 4}, Start: []int64{1, 1}, Count: []int64{2, 2}}
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 8 || s.Extent() != 32 {
		t.Fatalf("size/extent = %d/%d", s.Size(), s.Extent())
	}
	packed := pack(s, seq(32))
	// Element (r,c) starts at (r*4+c)*2.
	want := []byte{10, 11, 12, 13, 18, 19, 20, 21}
	if !bytes.Equal(packed, want) {
		t.Fatalf("packed = %v, want %v", packed, want)
	}

	// Full-array subarray is contiguous.
	full := Subarray{ElemSize: 2, Dims: []int64{4, 4}, Start: []int64{0, 0}, Count: []int64{4, 4}}
	if segs := Segments(full); len(segs) != 1 || segs[0] != (Segment{0, 32}) {
		t.Errorf("full subarray should be one run, have %v", segs)
	}
}

func TestSubarrayValidate(t *testing.T) {
	bad := []Subarray{
		{ElemSize: 0, Dims: []int64{4}, Start: []int64{0}, Count: []int64{1}},
		{ElemSize: 1, Dims: nil, Start: nil, Count: nil},
		{ElemSize: 1, Dims: []int64{4}, Start: []int64{0, 0}, Count: []int64{1}},
		{ElemSize: 1, Dims: []int64{4}, Start: []int64{-1}, Count: []int64{1}},
		{ElemSize: 1, Dims: []int64{4}, Start: []int64{0}, Count: []int64{5}},
		{ElemSize: 1, Dims: []int64{4}, Start: []int64{2}, Count: []int64{3}},
	}
	for i, s := range bad {
		if err := Validate(s); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

// Property: random compositions validate, and gathering their bytes,
// scattering them into a zeroed buffer and gathering again reproduces
// the first gather (the runs a type lists address its bytes alone).
func TestQuickPackUnpackIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		typ := randomType(r, 2)
		if err := Validate(typ); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		mem := make([]byte, typ.Extent())
		r.Read(mem)
		p1 := pack(typ, mem)
		if int64(len(p1)) != typ.Size() {
			return false
		}
		scratch := make([]byte, typ.Extent())
		unpack(typ, p1, scratch)
		return bytes.Equal(p1, pack(typ, scratch))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Segments covers exactly Size() bytes, runs are in
// non-overlapping ascending memory order for monotone types, every run
// is inside the extent, and the list was counted exactly before it was
// filled.
func TestQuickSegmentsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		typ := randomType(r, 2)
		segs := Segments(typ)
		if cap(segs) != len(segs) {
			t.Logf("seed %d: %d runs listed into room for %d", seed, len(segs), cap(segs))
			return false
		}
		var total int64
		pos := int64(-1)
		for _, s := range segs {
			if s.Len <= 0 || s.Off < 0 || s.Off+s.Len > typ.Extent() {
				t.Logf("seed %d: bad segment %+v extent %d", seed, s, typ.Extent())
				return false
			}
			if s.Off <= pos {
				t.Logf("seed %d: segments not ascending", seed)
				return false
			}
			pos = s.Off + s.Len - 1
			total += s.Len
		}
		return total == typ.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomType builds random monotone (ascending-displacement) type trees
// up to the given depth.
func randomType(r *rand.Rand, depth int) Type {
	if depth == 0 {
		return Bytes(1 + r.Intn(8))
	}
	switch r.Intn(4) {
	case 0:
		return Contiguous{Count: int64(1 + r.Intn(5)), Elem: randomType(r, depth-1)}
	case 1:
		bl := int64(1 + r.Intn(3))
		return Vector{
			Count:    int64(1 + r.Intn(5)),
			BlockLen: bl,
			Stride:   bl + int64(r.Intn(4)),
			Elem:     randomType(r, depth-1),
		}
	case 2:
		n := 1 + r.Intn(4)
		lens := make([]int64, n)
		displs := make([]int64, n)
		pos := int64(0)
		for i := 0; i < n; i++ {
			displs[i] = pos + int64(r.Intn(3))
			lens[i] = int64(1 + r.Intn(3))
			pos = displs[i] + lens[i]
		}
		return Indexed{BlockLens: lens, Displs: displs, Elem: randomType(r, depth-1)}
	default:
		nd := 1 + r.Intn(3)
		dims := make([]int64, nd)
		start := make([]int64, nd)
		count := make([]int64, nd)
		for d := 0; d < nd; d++ {
			dims[d] = 1 + int64(r.Intn(6))
			start[d] = int64(r.Intn(int(dims[d])))
			count[d] = 1 + int64(r.Intn(int(dims[d]-start[d])))
		}
		return Subarray{ElemSize: int64(1 + r.Intn(4)), Dims: dims, Start: start, Count: count}
	}
}
