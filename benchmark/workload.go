package main

import (
	"encoding/binary"
	"fmt"

	"dpfs"
)

// workload is one set of inputs the benchmark runs: a cluster shape, a
// file shape and the one access ("op") the data phases repeat.
type workload struct {
	name string

	class2  bool  // I/O servers carry the netsim class-2 model; native speed otherwise
	durable bool  // catalog on disk with a WAL that is appended and never fsynced
	cache   int64 // data-cache budget of the reread engine, bytes

	elem     int64     // element size of a data file
	dims     []int64   // array shape of a data file
	hint     dpfs.Hint // striping of a data file
	byteAPI  bool      // ops use ReadAt/WriteAt (linear byte stream) instead of sections
	noCapChk bool      // data files are created without the capacity check (keeps set-up short)

	// catalog > 0 pre-populates that many data files in 16 directories
	// and turns every data op into open -> transfer -> close on a
	// seed-chosen one of them; 0 gives each client one data file it
	// keeps open.
	catalog int

	positions int                        // distinct placements of the op inside one file
	section   func(pos int) dpfs.Section // the op's region at a placement
	traceOps  int                        // ops per phase of the traced run

	// tight holds the end-to-end metrics that repeat far better on this
	// workload than the bound BENCHMARK.json gives them, with the bound
	// -selfcheck holds them to here. BENCHMARK.json has one bound per
	// metric, shared by all workloads, so it cannot say this.
	tight map[string]float64
}

const (
	kib = int64(1) << 10
	mib = int64(1) << 20
)

// workloads lists the four workloads in the order BENCHMARK.json names
// them; why each exists is recorded there and in README.md.
var workloads = []*workload{
	{
		name: "bulk-native",
		elem: 8, dims: []int64{2048, 2048},
		hint:      dpfs.Hint{Level: dpfs.Multidim, Tile: []int64{256, 256}},
		cache:     16 * mib, // half a file: the reread pass misses and evicts
		positions: 8,
		section: func(pos int) dpfs.Section {
			return dpfs.NewSection([]int64{256 * int64(pos), 0}, []int64{256, 2048})
		},
		traceOps: 50, // a primed 4 MiB op with its replays costs a tenth of a second
	},
	{
		name: "smallio-native",
		elem: 1, dims: []int64{8 * mib},
		hint:      dpfs.Hint{Level: dpfs.Linear, BrickBytes: 64 * kib},
		byteAPI:   true,
		cache:     16 * mib, // twice a file: the reread pass only hits
		positions: int(8 * mib / (4 * kib)),
		section: func(pos int) dpfs.Section {
			return dpfs.NewSection([]int64{4 * kib * int64(pos)}, []int64{4 * kib})
		},
		traceOps: 200,
	},
	{
		name: "column-class2",
		elem: 8, dims: []int64{512, 512},
		class2:    true,
		hint:      dpfs.Hint{Level: dpfs.Linear, BrickBytes: 32 * kib},
		cache:     4 * mib, // twice a file
		positions: 8,
		section: func(pos int) dpfs.Section {
			return dpfs.NewSection([]int64{0, 64 * int64(pos)}, []int64{512, 64})
		},
		traceOps: 20,
		// The four timings the netsim sleeps shape repeat within 0.5%.
		tight: map[string]float64{"write_mbps": 0.05, "read_mbps": 0.05, "write_p50_us": 0.05, "read_p50_us": 0.05},
	},
	{
		name: "meta-native",
		elem: 8, dims: []int64{64, 64},
		durable:   true,
		hint:      dpfs.Hint{Level: dpfs.Multidim, Tile: []int64{32, 32}},
		noCapChk:  true,
		cache:     512 * kib, // half of one client's share of the catalog
		catalog:   64,
		positions: 1,
		section: func(int) dpfs.Section {
			return dpfs.FullSection([]int64{64, 64})
		},
		traceOps: 200,
	},
}

// catalogDirs is how many directories a populated catalog spreads over.
const catalogDirs = 16

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// fileBytes is the size of one data file.
func (w *workload) fileBytes() int64 {
	n := w.elem
	for _, d := range w.dims {
		n *= d
	}
	return n
}

// opBytes is the useful size of one data op.
func (w *workload) opBytes() int64 { return w.section(0).Bytes(w.elem) }

// catalogPath names populated file i.
func catalogPath(i int) string {
	return fmt.Sprintf("/cat/d%02d/f%04d", i%catalogDirs, i)
}

// mix is the splitmix64 finalizer: a cheap bijection with good
// avalanche, so neighbouring words of a file differ in every byte.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fileImage materialises a file's contents: the 8-byte word at logical
// (row-major) byte offset o of file number file is mix(key+o/8), with
// key derived from the seed and the file number. Everything the
// benchmark writes is a slice of an image and everything it reads is
// compared against one.
func fileImage(seed int64, file int, size int64) []byte {
	key := mix(uint64(seed)*0x100000001b3 + uint64(file))
	img := make([]byte, size)
	for o := int64(0); o+8 <= size; o += 8 {
		binary.LittleEndian.PutUint64(img[o:], mix(key+uint64(o/8)))
	}
	return img
}

// sectionOffset maps a byte offset inside a section's packed buffer to
// the logical byte offset of the same element in the file.
func sectionOffset(dims []int64, elem int64, sec dpfs.Section, memOff int64) int64 {
	idx, within := memOff/elem, memOff%elem
	nd := len(dims)
	coord := make([]int64, nd)
	for d := nd - 1; d >= 0; d-- {
		coord[d] = sec.Start[d] + idx%sec.Count[d]
		idx /= sec.Count[d]
	}
	var off int64
	for d := 0; d < nd; d++ {
		off = off*dims[d] + coord[d]
	}
	return off*elem + within
}

// packSection copies a section's bytes out of a file image into dst in
// the packed row-major order WriteSection expects. Runs along the last
// dimension are contiguous in the image.
func packSection(img []byte, dims []int64, elem int64, sec dpfs.Section, dst []byte) {
	run := sec.Count[len(dims)-1] * elem
	for mem := int64(0); mem < int64(len(dst)); mem += run {
		off := sectionOffset(dims, elem, sec, mem)
		copy(dst[mem:mem+run], img[off:off+run])
	}
}

// contiguous reports whether a section is one byte run of the file
// (full extent in every dimension but the first), returning the run's
// offset. Such sections are written straight from the image.
func contiguous(dims []int64, elem int64, sec dpfs.Section) (off int64, ok bool) {
	for d := 1; d < len(dims); d++ {
		if sec.Start[d] != 0 || sec.Count[d] != dims[d] {
			return 0, false
		}
	}
	return sectionOffset(dims, elem, sec, 0), true
}
