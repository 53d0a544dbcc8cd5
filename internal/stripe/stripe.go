// Package stripe implements the striping core of DPFS: the three file
// levels of the paper (linear, multidimensional and array striping), the
// placement algorithms that assign bricks to I/O servers (round-robin
// and the greedy load-balancing algorithm of Fig. 8), and the request
// combination / scheduling optimization of Section 4.2.
//
// The package is pure computation: given a file geometry and an access
// — runs of the file's logical byte space paired with runs of the
// caller's buffer — it produces the exact set of bricks touched, and for
// every brick the byte segments to move between brick storage and the
// caller's buffer. Network and disk I/O live elsewhere (internal/core,
// internal/server).
package stripe

import (
	"errors"
	"fmt"
)

// Level identifies one of the three DPFS file levels. The level is
// chosen by the user at file creation time through the hint structure
// and determines which striping method lays the file out on storage.
type Level uint8

const (
	// LevelLinear treats the file as a stream of contiguous bytes; a
	// brick is a contiguous run of BrickBytes bytes (Fig. 4).
	LevelLinear Level = iota + 1
	// LevelMultidim treats the file as an N-dimensional array; a brick
	// is an N-dimensional tile of shape Tile (Fig. 6).
	LevelMultidim
	// LevelArray treats the file as an N-dimensional array pre-chunked
	// by an HPF distribution; a brick is one whole coarse chunk
	// (Fig. 7).
	LevelArray
)

// String returns the paper's name for the level.
func (l Level) String() string {
	switch l {
	case LevelLinear:
		return "linear"
	case LevelMultidim:
		return "multidim"
	case LevelArray:
		return "array"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// ParseLevel converts a level name as stored in the catalog back to a
// Level value.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "linear":
		return LevelLinear, nil
	case "multidim":
		return LevelMultidim, nil
	case "array":
		return LevelArray, nil
	}
	return 0, fmt.Errorf("stripe: unknown file level %q", s)
}

// Dist is a per-dimension HPF distribution specifier for array-level
// files.
type Dist uint8

const (
	// DistStar ("*") leaves the dimension undistributed: a single chunk
	// spans the whole dimension.
	DistStar Dist = iota
	// DistBlock ("BLOCK") divides the dimension into Grid[d] contiguous
	// blocks of ceil(n/p) elements.
	DistBlock
)

// String returns the HPF notation for the distribution.
func (d Dist) String() string {
	if d == DistBlock {
		return "BLOCK"
	}
	return "*"
}

// Geometry fully describes the brick layout of a DPFS file. Exactly the
// fields relevant to the level need to be set; Validate reports
// misconfiguration.
type Geometry struct {
	Level Level

	// ElemSize is the size in bytes of one array element. Linear files
	// that are pure byte streams use ElemSize 1.
	ElemSize int64

	// Dims are the array dimensions in elements. For linear files Dims
	// may describe the logical array stored row-major in the byte
	// stream (used by PlanSection); a pure byte stream uses a single
	// dimension holding the length.
	Dims []int64

	// BrickBytes is the linear-level brick size in bytes.
	BrickBytes int64

	// Tile is the multidimensional-level brick shape in elements per
	// dimension; len(Tile) == len(Dims).
	Tile []int64

	// Pattern and Grid describe the array-level HPF distribution:
	// Pattern[d] says how dimension d is distributed and Grid[d] is the
	// number of blocks in dimension d (ignored, forced to 1, for
	// DistStar). len(Pattern) == len(Grid) == len(Dims).
	Pattern []Dist
	Grid    []int64
}

// Validate checks internal consistency of the geometry.
func (g *Geometry) Validate() error {
	if g.ElemSize <= 0 {
		return errors.New("stripe: ElemSize must be positive")
	}
	if len(g.Dims) == 0 {
		return errors.New("stripe: Dims must not be empty")
	}
	for _, d := range g.Dims {
		if d <= 0 {
			return errors.New("stripe: all Dims must be positive")
		}
	}
	switch g.Level {
	case LevelLinear:
		if g.BrickBytes <= 0 {
			return errors.New("stripe: linear level requires positive BrickBytes")
		}
	case LevelMultidim:
		if len(g.Tile) != len(g.Dims) {
			return errors.New("stripe: multidim level requires len(Tile) == len(Dims)")
		}
		for _, t := range g.Tile {
			if t <= 0 {
				return errors.New("stripe: all Tile extents must be positive")
			}
		}
	case LevelArray:
		if len(g.Pattern) != len(g.Dims) || len(g.Grid) != len(g.Dims) {
			return errors.New("stripe: array level requires len(Pattern) == len(Grid) == len(Dims)")
		}
		for d, p := range g.Pattern {
			switch p {
			case DistStar:
				// Grid ignored.
			case DistBlock:
				if g.Grid[d] <= 0 {
					return errors.New("stripe: BLOCK dimensions require positive Grid")
				}
				if g.Grid[d] > g.Dims[d] {
					return errors.New("stripe: Grid must not exceed Dims for BLOCK dimensions")
				}
			default:
				return fmt.Errorf("stripe: unknown distribution %d", p)
			}
		}
	default:
		return fmt.Errorf("stripe: unknown level %d", g.Level)
	}
	return nil
}

// Size returns the total logical file size in bytes.
func (g *Geometry) Size() int64 {
	n := g.ElemSize
	for _, d := range g.Dims {
		n *= d
	}
	return n
}

// NumBricks returns the number of bricks the file consists of.
func (g *Geometry) NumBricks() int {
	switch g.Level {
	case LevelLinear:
		return int(ceilDiv(g.Size(), g.BrickBytes))
	case LevelMultidim, LevelArray:
		n := int64(1)
		for d := range g.Dims {
			_, count := g.tiling(d)
			n *= count
		}
		return int(n)
	}
	return 0
}

// SlotBytes returns the uniform storage slot size reserved for each
// brick in a subfile. Bricks are stored at localIndex*SlotBytes in
// their server's subfile; partial edge bricks occupy a prefix of their
// slot and the remainder is a hole in the (sparse) subfile.
func (g *Geometry) SlotBytes() int64 {
	switch g.Level {
	case LevelLinear:
		return g.BrickBytes
	case LevelMultidim, LevelArray:
		n := g.ElemSize
		for d := range g.Dims {
			extent, _ := g.tiling(d)
			n *= extent
		}
		return n
	}
	return 0
}

// BrickBytesOf returns the number of stored bytes of brick b (partial
// edge bricks are smaller than SlotBytes).
func (g *Geometry) BrickBytesOf(b int) int64 {
	switch g.Level {
	case LevelLinear:
		sz := g.Size()
		off := int64(b) * g.BrickBytes
		if off+g.BrickBytes > sz {
			return sz - off
		}
		return g.BrickBytes
	case LevelMultidim:
		// Bricks use the full tile shape as their storage layout, so
		// even edge bricks occupy a full slot (with padding holes).
		return g.SlotBytes()
	case LevelArray:
		_, shape := g.chunkExtent(b)
		return g.ElemSize * prod(shape)
	}
	return 0
}

// tiling returns, for dimension d of a multidim or array file, the
// extent of its bricks along d in elements and how many bricks cover
// it: tiles of the hinted shape, or the HPF distribution's blocks of
// ceil(n/p) elements (one block for an undistributed dimension).
func (g *Geometry) tiling(d int) (extent, count int64) {
	if g.Level == LevelMultidim {
		return g.Tile[d], ceilDiv(g.Dims[d], g.Tile[d])
	}
	count = 1
	if g.Pattern[d] == DistBlock {
		count = g.Grid[d]
	}
	return ceilDiv(g.Dims[d], count), count
}

// chunkExtent returns the origin and shape (in elements) of array-level
// brick b.
func (g *Geometry) chunkExtent(b int) (origin, shape []int64) {
	nd := len(g.Dims)
	origin = make([]int64, nd)
	shape = make([]int64, nd)
	rem := int64(b)
	for d := nd - 1; d >= 0; d-- {
		extent, count := g.tiling(d)
		origin[d] = rem % count * extent
		rem /= count
		shape[d] = min(origin[d]+extent, g.Dims[d]) - origin[d]
	}
	return origin, shape
}

// ChunkSection returns the array section covered by chunk (brick) b of
// an array-level file: the region HPF assigns to processor b under the
// file's Pattern/Grid. Compute ranks use it to derive "my chunk"
// without repeating the block arithmetic.
func (g *Geometry) ChunkSection(b int) (Section, error) {
	if err := g.Validate(); err != nil {
		return Section{}, err
	}
	if g.Level != LevelArray {
		return Section{}, fmt.Errorf("stripe: ChunkSection requires an array-level file, have %v", g.Level)
	}
	if b < 0 || b >= g.NumBricks() {
		return Section{}, fmt.Errorf("stripe: chunk %d out of range [0,%d)", b, g.NumBricks())
	}
	origin, shape := g.chunkExtent(b)
	return Section{Start: origin, Count: shape}, nil
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

func prod(xs []int64) int64 {
	n := int64(1)
	for _, x := range xs {
		n *= x
	}
	return n
}

// rowMajorOffset returns the row-major linear index of pos within an
// array of the given shape.
func rowMajorOffset(pos, shape []int64) int64 {
	off := int64(0)
	for d := range shape {
		off = off*shape[d] + pos[d]
	}
	return off
}
