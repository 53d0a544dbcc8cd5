package datatype_test

import (
	"context"
	"testing"
	"time"

	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/datatype"
	"dpfs/internal/stripe"
)

// TestPackErrors: malformed types, and a buffer too short for its
// memory type, are errors — from Validate and from both typed calls,
// as the file type or as the memory type — and no request is sent for
// them. Gathering through any of these six types used to panic.
func TestPackErrors(t *testing.T) {
	bad := []struct {
		name string
		typ  datatype.Type
		size int64 // what the type claims to select
	}{
		{"indexed block at a negative displacement", datatype.Indexed{BlockLens: []int64{2}, Displs: []int64{-1}, Elem: datatype.Bytes(1)}, 2},
		{"vector with a negative stride", datatype.Vector{Count: 2, BlockLen: 1, Stride: -1, Elem: datatype.Bytes(1)}, 2},
		{"subarray past the end of its array", datatype.Subarray{ElemSize: 1, Dims: []int64{16}, Start: []int64{1}, Count: []int64{16}}, 16},
		{"indexed with more block lengths than displacements", datatype.Indexed{BlockLens: []int64{1, 1}, Displs: []int64{0}, Elem: datatype.Bytes(1)}, 2},
		{"struct with more types than displacements", datatype.Struct{Displs: []int64{0}, Types: []datatype.Type{datatype.Bytes(1), datatype.Bytes(1)}}, 2},
		{"negative byte count", datatype.Bytes(-1), -1},
	}

	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(2), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, err := fs.Create("/bad-types", 1, []int64{64}, core.Hint{Level: stripe.LevelLinear, BrickBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	mem := make([]byte, 64)

	for _, b := range bad {
		if err := datatype.Validate(b.typ); err == nil {
			t.Errorf("%s: Validate accepted it", b.name)
		}
		good := datatype.Bytes(b.size)
		for _, call := range []struct {
			name string
			do   func() error
		}{
			{"WriteAtTyped, memory type", func() error { return f.WriteAtTyped(ctx, 0, good, b.typ, mem) }},
			{"ReadAtTyped, memory type", func() error { return f.ReadAtTyped(ctx, 0, good, b.typ, mem) }},
			{"WriteAtTyped, file type", func() error { return f.WriteAtTyped(ctx, 0, b.typ, good, mem) }},
			{"ReadAtTyped, file type", func() error { return f.ReadAtTyped(ctx, 0, b.typ, good, mem) }},
		} {
			if err := call.do(); err == nil {
				t.Errorf("%s: %s accepted it", b.name, call.name)
			}
		}
	}
	// A memory type reaching past the end of the buffer.
	strided := datatype.Vector{Count: 2, BlockLen: 1, Stride: 4, Elem: datatype.Bytes(1)}
	if err := datatype.Validate(strided); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadAtTyped(ctx, 0, datatype.Bytes(2), strided, mem[:2]); err == nil {
		t.Error("ReadAtTyped into a buffer shorter than its memory type accepted")
	}
	if err := f.WriteAtTyped(ctx, 0, datatype.Bytes(2), strided, mem[:2]); err == nil {
		t.Error("WriteAtTyped from a buffer shorter than its memory type accepted")
	}
	if n := fs.Stats().Requests; n != 0 {
		t.Errorf("%d requests sent for malformed accesses, want none", n)
	}
}
