// Quickstart: bring up a complete DPFS deployment in one process (a
// metadata server and four I/O servers), create a striped file through
// the public API, write and read an array section, and inspect the
// catalog — the five-minute tour of the system.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"

	"dpfs"
	"dpfs/internal/cluster"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	dir, err := os.MkdirTemp("", "dpfs-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A metadata server plus four I/O servers, all in-process. In a
	// real deployment these are cmd/dpfs-meta and cmd/dpfs-server on
	// separate machines.
	clu, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(4), Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer clu.Close()

	// Connect like any external client: over TCP to the metadata
	// server. Request combination and staggered scheduling on.
	client, err := dpfs.Connect(clu.MetaSrv.Addr(), 0, dpfs.Options{Combine: true, Stagger: true})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	servers, err := client.Servers()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered I/O servers: %d\n", len(servers))

	// Create a 1024x1024 float64 array striped as 128x128 tiles
	// (multidimensional level) across all servers.
	if err := client.Mkdir("/demo"); err != nil {
		log.Fatal(err)
	}
	f, err := client.Create("/demo/matrix", 8, []int64{1024, 1024}, dpfs.Hint{
		Level: dpfs.Multidim,
		Tile:  []int64{128, 128},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created %s: %d bricks on %d servers, placement %s\n",
		f.Info().Path, f.Geometry().NumBricks(), len(f.Info().Servers), f.Info().Placement)

	// Write the full array.
	full := dpfs.FullSection([]int64{1024, 1024})
	data := make([]byte, full.Bytes(8))
	for i := range data {
		data[i] = byte(i)
	}
	if err := f.WriteSection(ctx, full, data); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d MiB\n", len(data)>>20)

	// Read a column block back — the access pattern that motivates
	// multidimensional striping.
	col := dpfs.NewSection([]int64{0, 256}, []int64{1024, 128})
	buf := make([]byte, col.Bytes(8))
	before := f.Stats()
	if err := f.ReadSection(ctx, col, buf); err != nil {
		log.Fatal(err)
	}
	st := f.Stats()
	fmt.Printf("column read: %d KiB useful in %d requests, %d KiB moved\n",
		(st.BytesUseful-before.BytesUseful)>>10, st.Requests-before.Requests,
		(st.BytesTransferred-before.BytesTransferred)>>10)

	// Verify a slice against what we wrote.
	want := data[(0*1024+256)*8 : (0*1024+256+128)*8]
	if !bytes.Equal(buf[:128*8], want) {
		log.Fatal("data mismatch!")
	}
	fmt.Println("verified: bytes match the original write")

	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	// The catalog knows everything about the file.
	fi, err := client.Stat("/demo/matrix")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog: owner=%s size=%d level=%s tile=%v\n",
		fi.Owner, fi.Size, fi.Geometry.Level, fi.Geometry.Tile)

	if err := client.Remove(ctx, "/demo/matrix"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("removed; quickstart done")
}
