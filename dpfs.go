// Package dpfs is a Go implementation of DPFS, the Distributed Parallel
// File System of Shen and Choudhary (ICPP 2001). DPFS aggregates unused
// storage on distributed machines into one parallel file system:
// files are striped into bricks across TCP I/O servers, meta data lives
// in a relational database reached over the network, and the client
// library offers MPI-IO-style access with user hints.
//
// The three file levels of the paper are supported:
//
//   - Linear: the file is a byte stream; bricks are contiguous byte
//     runs. Most general, but column-style accesses touch every brick.
//   - Multidimensional: the file is an N-d array; bricks are N-d tiles,
//     so row and column accesses touch equally few bricks.
//   - Array: the file is pre-chunked by an HPF distribution
//     ((BLOCK,*), (*,BLOCK), (BLOCK,BLOCK), ...); each chunk is one
//     brick, ideal for checkpoint-style whole-chunk access.
//
// Placement is round-robin or the paper's greedy algorithm, which gives
// faster servers proportionally more bricks. Request combination ships
// all bricks bound for one server in a single message and staggers each
// client's server sweep to avoid convoying.
//
// A complete deployment needs a metadata server (cmd/dpfs-meta), any
// number of I/O servers (cmd/dpfs-server), and clients created with
// Connect. Tests and single-process experiments can instead use
// internal/cluster through the example programs.
package dpfs

import (
	"context"
	"fmt"
	"io"
	"strings"

	"dpfs/internal/core"
	"dpfs/internal/datatype"
	"dpfs/internal/meta"
	"dpfs/internal/metadb/mdbnet"
	"dpfs/internal/repair"
	"dpfs/internal/stripe"
)

// Re-exported striping vocabulary. See internal/stripe for details.
type (
	// Level selects a DPFS file level (striping method).
	Level = stripe.Level
	// Dist is a per-dimension HPF distribution for array-level files.
	Dist = stripe.Dist
	// Section is a hyper-rectangular region of an array file.
	Section = stripe.Section
	// Geometry describes a file's brick layout.
	Geometry = stripe.Geometry
	// Placement assigns bricks to servers (RoundRobin or Greedy).
	Placement = stripe.Placement
	// RoundRobin places brick i on server i mod S.
	RoundRobin = stripe.RoundRobin
	// Greedy is the load-balancing placement of Fig. 8.
	Greedy = stripe.Greedy
)

// Re-exported derived datatypes (the MPI-style types of Section 6), the
// file and memory types of File.WriteAtTyped and File.ReadAtTyped. See
// internal/datatype for details.
type (
	// Datatype describes a (possibly non-contiguous) byte layout.
	Datatype = datatype.Type
	// Bytes is one run of n bytes.
	Bytes = datatype.Bytes
	// Contiguous is Count consecutive instances of Elem.
	Contiguous = datatype.Contiguous
	// Vector is Count blocks of BlockLen elements, Stride elements apart.
	Vector = datatype.Vector
	// Indexed is blocks of varying lengths at varying displacements.
	Indexed = datatype.Indexed
	// Subarray selects a hyper-rectangle of a row-major array.
	Subarray = datatype.Subarray
	// Struct is fields of any types at explicit byte displacements.
	Struct = datatype.Struct
)

// File levels.
const (
	// Linear treats the file as a stream of bytes (Fig. 4).
	Linear = stripe.LevelLinear
	// Multidim stripes the file into N-dimensional tiles (Fig. 6).
	Multidim = stripe.LevelMultidim
	// Array stripes the file into whole HPF chunks (Fig. 7).
	Array = stripe.LevelArray
)

// HPF distribution specifiers.
const (
	// Star ("*") leaves a dimension undistributed.
	Star = stripe.DistStar
	// Block ("BLOCK") divides a dimension into contiguous blocks.
	Block = stripe.DistBlock
)

// Client-engine types. See internal/core for field documentation.
type (
	// Options tune the client engine (request combination, staggered
	// scheduling, dispatch, caches).
	Options = core.Options
	// Hint is the DPFS-API hint structure conveyed at file creation.
	Hint = core.Hint
	// File is an open DPFS file handle.
	File = core.File
	// Stats counts network requests and bytes moved by the engine.
	Stats = core.Stats
	// FileInfo is a file's catalog record.
	FileInfo = meta.FileInfo
	// ServerInfo is an I/O server's catalog registration.
	ServerInfo = meta.ServerInfo
	// HealthInfo is a server's row in the catalog health table.
	HealthInfo = meta.HealthInfo
	// RepairReport summarizes an online repair run.
	RepairReport = repair.Report
	// FileRepairInfo is one file's outcome in a repair run.
	FileRepairInfo = repair.FileRepair
)

// AccessPattern describes expected file access for Advise.
type AccessPattern = core.AccessPattern

// Advise turns an access-pattern description into a creation hint,
// encoding the paper's Section 3 guidance: array level for whole-chunk
// HPF access, multidimensional level with access-shaped tiles for
// subarray access, linear otherwise.
func Advise(elemSize int64, dims []int64, ap AccessPattern) Hint {
	return core.Advise(elemSize, dims, ap)
}

// NewSection builds a section from start/count per dimension.
func NewSection(start, count []int64) Section { return stripe.NewSection(start, count) }

// FullSection covers an entire array.
func FullSection(dims []int64) Section { return stripe.FullSection(dims) }

// Client is a DPFS mount: one compute process's connection to the
// metadata catalog (one server, or one replica group) and, lazily, to
// the I/O servers.
type Client struct {
	fs  *core.FS
	mdb interface{ Close() error }
}

// Connect dials the metadata catalog and returns a client for the
// given compute rank. Call Close when done. metaAddr is one catalog
// server's address, or the comma-separated SQL addresses of one
// catalog replica group ("h1:7700,h2:7700,h3:7700", in any order),
// whose connection follows the group's primary across elections (see
// internal/metarepl).
func Connect(metaAddr string, rank int, opts Options) (*Client, error) {
	if strings.Contains(metaAddr, ";") {
		return nil, fmt.Errorf("dpfs: catalog address %q holds a ';': catalog shards were removed, so name one catalog or its replica group (commas between replicas)", metaAddr)
	}
	addrs := strings.Split(metaAddr, ",")
	for i, a := range addrs {
		if addrs[i] = strings.TrimSpace(a); addrs[i] == "" {
			return nil, fmt.Errorf("dpfs: catalog address list %q has an empty element", metaAddr)
		}
	}
	var (
		x interface {
			meta.Execer
			Close() error
		}
		err error
	)
	if len(addrs) == 1 {
		x, err = mdbnet.Dial(addrs[0])
	} else {
		x, err = mdbnet.DialGroup(addrs, nil)
	}
	if err != nil {
		return nil, err
	}
	cat := meta.NewCatalog(x)
	if err := cat.Init(); err != nil {
		x.Close()
		return nil, err
	}
	return &Client{fs: core.NewFS(cat, rank, opts), mdb: x}, nil
}

// Wrap builds a Client around an existing engine (used by in-process
// clusters and tests).
func Wrap(fs *core.FS) *Client { return &Client{fs: fs} }

// Close drops all server connections.
func (c *Client) Close() error {
	err := c.fs.Close()
	if c.mdb != nil {
		if cerr := c.mdb.Close(); err == nil {
			err = cerr
		}
		c.mdb = nil
	}
	return err
}

// Engine exposes the underlying client engine.
func (c *Client) Engine() *core.FS { return c.fs }

// Stats returns this client's own traffic counters, isolated from
// other clients in the process.
func (c *Client) Stats() Stats { return c.fs.Stats() }

// Create makes and opens a new DPFS file holding an array of the given
// element size and dimensions, striped according to the hint
// (DPFS-Open for writing, Section 6).
func (c *Client) Create(path string, elemSize int64, dims []int64, hint Hint) (*File, error) {
	return c.fs.Create(path, elemSize, dims, hint)
}

// Open opens an existing DPFS file (DPFS-Open for reading).
func (c *Client) Open(path string) (*File, error) { return c.fs.Open(path) }

// Remove deletes a file: catalog rows and all server subfiles.
func (c *Client) Remove(ctx context.Context, path string) error { return c.fs.Remove(ctx, path) }

// Rename moves a file to a new path (catalog records and server
// subfiles).
func (c *Client) Rename(ctx context.Context, oldPath, newPath string) error {
	return c.fs.Rename(ctx, oldPath, newPath)
}

// Chmod sets a file's permission bits in the catalog.
func (c *Client) Chmod(path string, perm int) error {
	if err := c.fs.Catalog().SetPerm(path, perm); err != nil {
		return err
	}
	c.fs.InvalidateMeta(path)
	return nil
}

// Chown sets a file's owner in the catalog.
func (c *Client) Chown(path, owner string) error {
	if err := c.fs.Catalog().SetOwner(path, owner); err != nil {
		return err
	}
	c.fs.InvalidateMeta(path)
	return nil
}

// Usage reports per-server file and brick counts from the catalog.
func (c *Client) Usage() ([]meta.ServerUsage, error) { return c.fs.Catalog().Usage() }

// FilesOnServer lists the files holding bricks on one server.
func (c *Client) FilesOnServer(server string) ([]meta.FileOnServer, error) {
	return c.fs.Catalog().FilesOnServer(server)
}

// Stat returns a file's catalog record, served from the client's
// metadata cache when one is configured (Options.MetaTTL).
func (c *Client) Stat(path string) (FileInfo, error) { return c.fs.Stat(path) }

// Mkdir creates a DPFS directory.
func (c *Client) Mkdir(path string) error { return c.fs.Catalog().Mkdir(path) }

// Rmdir removes an empty DPFS directory.
func (c *Client) Rmdir(path string) error { return c.fs.Catalog().Rmdir(path) }

// ReadDir lists a directory.
func (c *Client) ReadDir(path string) (dirs, files []string, err error) {
	return c.fs.Catalog().ReadDir(path)
}

// IsDir reports whether path is an existing directory.
func (c *Client) IsDir(path string) (bool, error) { return c.fs.Catalog().IsDir(path) }

// Servers lists registered I/O servers.
func (c *Client) Servers() ([]ServerInfo, error) { return c.fs.Catalog().Servers() }

// RegisterServer adds or updates an I/O server registration.
func (c *Client) RegisterServer(si ServerInfo) error { return c.fs.Catalog().RegisterServer(si) }

// ServerHealth returns the catalog's per-server health rows
// (alive/suspect/dead, fed by client failure reports and probes).
func (c *Client) ServerHealth() ([]HealthInfo, error) { return c.fs.Catalog().ServerHealth() }

// Repair probes the registered I/O servers, records their health in
// the catalog, and re-replicates under-replicated bricks of every
// file onto healthy servers, rewriting each repaired file's replica
// set under a fresh generation so copies on dead servers can never be
// resurrected. See internal/repair for the protocol.
func (c *Client) Repair(ctx context.Context) (*RepairReport, error) {
	opts := c.fs.Options()
	r := repair.New(c.fs.Catalog(), repair.Options{
		Dial:    opts.Dial,
		Retry:   opts.Retry,
		Metrics: c.fs.Metrics(),
	})
	defer r.Close()
	return r.Run(ctx)
}

// Import copies size bytes from r into a new linear DPFS file
// (sequential file → DPFS, Section 7).
func (c *Client) Import(ctx context.Context, r io.Reader, path string, size int64, hint Hint) error {
	return c.fs.Import(ctx, r, path, size, hint)
}

// Export streams a DPFS file's contents to w as a flat byte sequence
// (DPFS → sequential file, Section 7).
func (c *Client) Export(ctx context.Context, w io.Writer, path string) error {
	return c.fs.Export(ctx, w, path)
}
