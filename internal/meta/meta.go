// Package meta implements the DPFS meta-data catalog of Section 5: the
// four relational tables of Fig. 10 (DPFS-SERVER,
// DPFS-FILE-DISTRIBUTION, DPFS-DIRECTORY, DPFS-FILE-ATTR) kept in a SQL
// database and manipulated through plain SQL statements inside
// transactions. The database can be embedded (a *metadb.Session) or
// remote (an *mdbnet.Client), exactly as the paper runs POSTGRES on a
// separate machine.
package meta

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"dpfs/internal/metadb"
	"dpfs/internal/obs"
	"dpfs/internal/stripe"
)

// Execer is the catalog's SQL connection: *metadb.Session and
// *mdbnet.Client, of one catalog or one replica group (and *metadb.DB,
// whose every call is a session of its own, so a transaction must fit
// in one Batch) satisfy it. Statements issued between BEGIN and COMMIT must see
// connection/session-scoped transaction semantics.
type Execer interface {
	// Exec runs one statement with args bound to its '?' placeholders.
	Exec(sql string, args ...metadb.Value) (*metadb.Result, error)
	// Batch runs statements in order, in one round trip when the
	// connection is remote, and stops at the first that fails: it
	// returns the results of those before it and that error. A batch of
	// SELECTs outside a transaction reads one committed state.
	Batch(stmts []metadb.Stmt) ([]*metadb.Result, error)
}

// The catalog's statements. Every text is a constant and every value
// travels as an argument, so the database parses each text once and no
// name, owner or address ever needs quoting.
const (
	sqlBegin    = `BEGIN`
	sqlCommit   = `COMMIT`
	sqlRollback = `ROLLBACK`

	sqlCreateServer = `CREATE TABLE IF NOT EXISTS dpfs_server (
		server_name TEXT PRIMARY KEY,
		capacity INT NOT NULL,
		performance INT NOT NULL,
		addr TEXT NOT NULL)`
	sqlCreateDistribution = `CREATE TABLE IF NOT EXISTS dpfs_file_distribution (
		server TEXT NOT NULL,
		filename TEXT NOT NULL,
		srv_index INT NOT NULL,
		brick_count INT NOT NULL,
		bricklist TEXT NOT NULL,
		gen INT NOT NULL)`
	sqlCreateGeneration = `CREATE TABLE IF NOT EXISTS dpfs_generation (
		id INT PRIMARY KEY,
		next INT NOT NULL)`
	sqlIndexDistByFile   = `CREATE INDEX IF NOT EXISTS dist_by_file ON dpfs_file_distribution (filename)`
	sqlIndexDistByServer = `CREATE INDEX IF NOT EXISTS dist_by_server ON dpfs_file_distribution (server)`
	// DPFS-DIRECTORY, one row per entry: every directory and file under
	// its parent directory's path, and the root under ''.
	sqlCreateEntry = `CREATE TABLE IF NOT EXISTS dpfs_dir_entry (
		path TEXT PRIMARY KEY,
		parent TEXT NOT NULL,
		kind TEXT NOT NULL)`
	sqlIndexEntryByParent = `CREATE INDEX IF NOT EXISTS entry_by_parent ON dpfs_dir_entry (parent)`
	sqlCreateAttr         = `CREATE TABLE IF NOT EXISTS dpfs_file_attr (
		filename TEXT PRIMARY KEY,
		owner TEXT NOT NULL,
		permission INT NOT NULL,
		size INT NOT NULL,
		filelevel TEXT NOT NULL,
		elem_size INT NOT NULL,
		dims TEXT NOT NULL,
		brick_bytes INT NOT NULL,
		tile TEXT NOT NULL,
		pattern TEXT NOT NULL,
		grid TEXT NOT NULL,
		placement TEXT NOT NULL,
		slot_bytes INT NOT NULL,
		replicas INT NOT NULL)`
	sqlCreateHealth = `CREATE TABLE IF NOT EXISTS dpfs_server_health (
		server_name TEXT PRIMARY KEY,
		state TEXT NOT NULL,
		fails INT NOT NULL)`
	sqlSeedRoot       = `INSERT OR IGNORE INTO dpfs_dir_entry VALUES ('/', '', 'dir')`
	sqlSeedGeneration = `INSERT OR IGNORE INTO dpfs_generation VALUES (0, 0)`

	sqlBumpGeneration = `UPDATE dpfs_generation SET next = next + 1 WHERE id = 0`
	sqlReadGeneration = `SELECT next FROM dpfs_generation WHERE id = 0`

	sqlUpdateServer = `UPDATE dpfs_server SET capacity = ?, performance = ?, addr = ? WHERE server_name = ?`
	sqlSeedServer   = `INSERT OR IGNORE INTO dpfs_server VALUES (?, ?, ?, ?)`
	sqlDeleteServer = `DELETE FROM dpfs_server WHERE server_name = ?`
	sqlListServers  = `SELECT server_name, capacity, performance, addr FROM dpfs_server ORDER BY server_name`
	sqlReadServer   = `SELECT server_name, capacity, performance, addr FROM dpfs_server WHERE server_name = ?`

	sqlSeedHealth    = `INSERT OR IGNORE INTO dpfs_server_health VALUES (?, ?, 0)`
	sqlCountFailure  = `UPDATE dpfs_server_health SET fails = fails + 1 WHERE server_name = ?`
	sqlMoveHealth    = `UPDATE dpfs_server_health SET state = ? WHERE server_name = ? AND state = ?`
	sqlSetHealth     = `UPDATE dpfs_server_health SET state = ? WHERE server_name = ?`
	sqlResetHealth   = `UPDATE dpfs_server_health SET state = ?, fails = 0 WHERE server_name = ?`
	sqlListHealth    = `SELECT server_name, state, fails FROM dpfs_server_health ORDER BY server_name`
	sqlInsertEntry   = `INSERT INTO dpfs_dir_entry VALUES (?, ?, ?)`
	sqlDeleteEntry   = `DELETE FROM dpfs_dir_entry WHERE path = ?`
	sqlMoveEntry     = `UPDATE dpfs_dir_entry SET path = ?, parent = ? WHERE path = ?`
	sqlReadEntry     = `SELECT kind FROM dpfs_dir_entry WHERE path = ?`
	sqlListDir       = `SELECT path, kind FROM dpfs_dir_entry WHERE parent = ? ORDER BY path`
	sqlCountDir      = `SELECT COUNT(*) FROM dpfs_dir_entry WHERE parent = ?`
	sqlInsertAttr    = `INSERT INTO dpfs_file_attr VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`
	sqlInsertDist    = `INSERT INTO dpfs_file_distribution VALUES (?, ?, ?, ?, ?, ?)`
	sqlReadAttr      = `SELECT owner, permission, size, filelevel, elem_size, dims, brick_bytes, tile, pattern, grid, placement, replicas FROM dpfs_file_attr WHERE filename = ?`
	sqlReadDist      = `SELECT server, srv_index, bricklist, gen FROM dpfs_file_distribution WHERE filename = ? ORDER BY srv_index`
	sqlReadDistHome  = `SELECT server, gen FROM dpfs_file_distribution WHERE filename = ? ORDER BY srv_index`
	sqlDeleteAttr    = `DELETE FROM dpfs_file_attr WHERE filename = ?`
	sqlDeleteDist    = `DELETE FROM dpfs_file_distribution WHERE filename = ?`
	sqlRenameAttr    = `UPDATE dpfs_file_attr SET filename = ? WHERE filename = ?`
	sqlRenameDist    = `UPDATE dpfs_file_distribution SET filename = ? WHERE filename = ?`
	sqlListFiles     = `SELECT filename FROM dpfs_file_attr ORDER BY filename`
	sqlSetSize       = `UPDATE dpfs_file_attr SET size = ? WHERE filename = ?`
	sqlSetPerm       = `UPDATE dpfs_file_attr SET permission = ? WHERE filename = ?`
	sqlSetOwner      = `UPDATE dpfs_file_attr SET owner = ? WHERE filename = ?`
	sqlUsageByServer = `SELECT server, COUNT(*), SUM(brick_count) FROM dpfs_file_distribution GROUP BY server`
	sqlUsedBytes     = `SELECT d.server, SUM(d.brick_count * a.slot_bytes)
		FROM dpfs_file_distribution d
		JOIN dpfs_file_attr a ON d.filename = a.filename
		GROUP BY d.server`
	sqlFilesOnServer = `SELECT d.filename, a.size, d.brick_count
		FROM dpfs_file_distribution d
		JOIN dpfs_file_attr a ON d.filename = a.filename
		WHERE d.server = ? ORDER BY d.filename`

	// Catalogs written before directory entries were rows kept each
	// directory's children in two comma-joined lists; Init converts them
	// (convertDirLists) and leaves the table empty.
	sqlCreateDirLists = `CREATE TABLE IF NOT EXISTS dpfs_directory (
		main_dir TEXT PRIMARY KEY,
		sub_dirs TEXT NOT NULL,
		files TEXT NOT NULL)`
	sqlReadDirLists  = `SELECT main_dir, sub_dirs, files FROM dpfs_directory`
	sqlClearDirLists = `DELETE FROM dpfs_directory`
)

// The kinds of a directory entry.
const kindDir, kindFile = "dir", "file"

// q pairs a statement text with its arguments.
func q(sql string, args ...metadb.Value) metadb.Stmt {
	return metadb.Stmt{SQL: sql, Args: args}
}

// str and num make TEXT and INTEGER arguments.
func str(s string) metadb.Value           { return metadb.S(s) }
func num[T int | int64](n T) metadb.Value { return metadb.I(int64(n)) }

// A catalog transaction costs one round trip per dependency step: begin
// opens it and runs the reads its decisions depend on, commit ships
// every write together with the COMMIT, and atomically does both at
// once for a transaction that needs no decision in between. Whichever
// step fails, the transaction is rolled back.

// begin opens a transaction and runs reads inside it, returning their
// results. Under the database's strict two-phase locking the first read
// takes the exclusive lock, so what it saw still holds at commit.
func (c *Catalog) begin(reads ...metadb.Stmt) ([]*metadb.Result, error) {
	res, err := c.db.Batch(append([]metadb.Stmt{q(sqlBegin)}, reads...))
	if err != nil {
		c.rollback()
		return nil, err
	}
	return res[1:], nil
}

// commit runs writes and commits the transaction begin opened.
func (c *Catalog) commit(writes ...metadb.Stmt) error {
	_, err := c.db.Batch(append(writes, q(sqlCommit)))
	if err != nil {
		c.rollback()
	}
	return err
}

// rollback abandons the open transaction. It is also sent when the
// transaction may already be gone (a failed COMMIT, a connection that
// broke and took its session along), so its own error means nothing.
func (c *Catalog) rollback() { _, _ = c.db.Exec(sqlRollback) }

// abort rolls back and returns err: for a transaction whose reads say
// it must not proceed.
func (c *Catalog) abort(err error) error {
	c.rollback()
	return err
}

// atomically runs stmts as one transaction in one round trip and
// returns their results.
func (c *Catalog) atomically(stmts ...metadb.Stmt) ([]*metadb.Result, error) {
	res, err := c.begin(append(stmts, q(sqlCommit))...)
	if err != nil {
		return nil, err
	}
	return res[:len(stmts)], nil
}

// SpanSetter is the optional interface of Execers that can attach
// distributed-trace context to their statements (*mdbnet.Client does;
// the embedded *metadb.Session does not need to — it is in-process).
type SpanSetter interface {
	// SetTraceSpan sets the parent span for subsequent statements; nil
	// disables propagation.
	SetTraceSpan(*obs.Span)
}

// SetTraceSpan forwards the trace parent to the underlying connection
// when it supports trace propagation, and is a no-op otherwise.
// Best-effort and last-setter-wins, like the connection itself.
func (c *Catalog) SetTraceSpan(sp *obs.Span) {
	if ss, ok := c.db.(SpanSetter); ok {
		ss.SetTraceSpan(sp)
	}
}

// ServerInfo is one row of DPFS-SERVER.
type ServerInfo struct {
	Name string
	// Capacity is the advertised storage capacity in bytes.
	Capacity int64
	// Performance is the normalized per-brick access time (fastest
	// server = 1; a server 3x slower = 3). The greedy striping
	// algorithm consumes this.
	Performance int
	// Addr is the network address of the DPFS server process.
	Addr string
}

// FileInfo is a DPFS file's complete meta data: the DPFS-FILE-ATTR row
// plus the server list of its distribution.
type FileInfo struct {
	Path     string
	Owner    string
	Perm     int
	Size     int64
	Geometry stripe.Geometry
	// Placement names the striping algorithm used at creation.
	Placement string
	// Servers holds, in distribution order, the names of the servers
	// across which the file is striped; the brick→server assignment
	// indexes into it.
	Servers []string
	// Generation is the distribution generation stamped into the
	// file's DPFS-FILE-DISTRIBUTION rows at creation, allocated from
	// the catalog-wide dpfs_generation counter. I/O servers key
	// subfiles by (path, generation), so a client whose cached
	// distribution predates a remove+recreate of the same path is
	// detected (stale-generation error) instead of being served the
	// wrong file's bricks. Zero means ungenerationed (legacy rows and
	// direct catalog tests).
	Generation int64
	// Replicas is the file's replication factor R: every brick is
	// stored on R distinct servers. 1 (or 0, normalized to 1) is the
	// unreplicated layout.
	Replicas int
}

// Catalog performs DPFS catalog operations over a SQL connection. It
// is safe for concurrent use; operations that touch multiple tables
// run inside a transaction.
type Catalog struct {
	mu sync.Mutex
	db Execer
}

// NewCatalog wraps a SQL connection.
func NewCatalog(db Execer) *Catalog { return &Catalog{db: db} }

// Router is the catalog surface the engine, the repair runner and the
// shell (through the engine) consume. One *Catalog serves it, over one
// connection or one replica group's failover connection.
type Router interface {
	// SetTraceSpan forwards the trace parent to the connection; nil
	// disables propagation.
	SetTraceSpan(*obs.Span)
	NextGeneration(path string) (int64, error)

	RegisterServer(s ServerInfo) error
	Servers() ([]ServerInfo, error)
	Server(name string) (ServerInfo, error)
	ReportServerFailure(name string) error
	SetServerState(name, state string) error
	ServerHealth() ([]HealthInfo, error)

	Mkdir(path string) error
	Rmdir(path string) error
	ReadDir(path string) (dirs, files []string, err error)
	IsDir(path string) (bool, error)

	CreateReplicated(fi FileInfo, assign [][]int) error
	LookupReplicated(path string) (FileInfo, *stripe.ReplicaSet, error)
	UpdateDistribution(path string, servers []string, lists [][]stripe.ReplicaEntry, gen int64) error
	Files() ([]string, error)
	Stat(path string) (FileInfo, error)
	RemoveFile(path string) (FileInfo, error)
	RenameFile(oldPath, newPath string) (servers []string, gen int64, err error)

	Usage() ([]ServerUsage, error)
	UsedBytes() (map[string]int64, error)
	FilesOnServer(server string) ([]FileOnServer, error)

	SetPerm(path string, perm int) error
	SetOwner(path, owner string) error
}

var _ Router = (*Catalog)(nil)

// Init creates the DPFS tables, their indexes, the root directory and
// the generation counter. Every statement is idempotent, so all of them
// go in one round trip whether the catalog is new or not; the last
// reads the directory lists an older catalog may still hold, and only
// then does Init convert them.
func (c *Catalog) Init() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.db.Batch([]metadb.Stmt{
		q(sqlCreateServer), q(sqlCreateDistribution), q(sqlCreateGeneration),
		q(sqlIndexDistByFile), q(sqlIndexDistByServer),
		q(sqlCreateEntry), q(sqlIndexEntryByParent), q(sqlCreateDirLists),
		q(sqlCreateAttr), q(sqlCreateHealth),
		q(sqlSeedRoot), q(sqlSeedGeneration), q(sqlReadDirLists),
	})
	if err == nil && len(res[len(res)-1].Rows) > 0 {
		err = c.convertDirLists()
	}
	if err != nil {
		return fmt.Errorf("meta: init: %w", err)
	}
	return nil
}

// convertDirLists turns the directory lists of a catalog written before
// directory entries were rows into one entry per name, and empties the
// lists, in one transaction: a crash leaves the catalog as it was, and
// once it commits the next Init finds nothing to convert.
func (c *Catalog) convertDirLists() error {
	res, err := c.begin(q(sqlReadDirLists))
	if err != nil {
		return err
	}
	var writes []metadb.Stmt
	for _, r := range res[0].Rows {
		dir := r[0].Str
		for i, kind := range []string{kindDir, kindFile} {
			if r[1+i].Str == "" {
				continue
			}
			for _, name := range strings.Split(r[1+i].Str, ",") {
				path := strings.TrimSuffix(dir, "/") + "/" + name
				writes = append(writes, q(sqlInsertEntry, str(path), str(dir), str(kind)))
			}
		}
	}
	return c.commit(append(writes, q(sqlClearDirLists))...)
}

// NextGeneration allocates a fresh distribution generation from the
// catalog-wide counter. The UPDATE runs first so the transaction takes
// its exclusive lock immediately (no shared→exclusive upgrade under
// strict 2PL); concurrent allocators serialize on it and each sees a
// distinct value. Generations only grow, which is what lets the I/O
// servers order any two distributions of the same path.
//
// The counter is catalog-wide and path is ignored; the parameter stays
// because callers outside this module name the signature.
func (c *Catalog) NextGeneration(path string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.atomically(q(sqlBumpGeneration), q(sqlReadGeneration))
	if err != nil {
		return 0, err
	}
	if len(res[1].Rows) == 0 {
		return 0, errors.New("meta: generation counter missing (Init not run?)")
	}
	return res[1].Rows[0][0].Int, nil
}

// --- server registry --------------------------------------------------

// RegisterServer adds or updates a DPFS-SERVER row.
func (c *Catalog) RegisterServer(s ServerInfo) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := validName(s.Name); err != nil {
		return err
	}
	if s.Performance < 1 {
		return fmt.Errorf("meta: server %q performance must be >= 1", s.Name)
	}
	_, err := c.atomically(
		q(sqlSeedServer, str(s.Name), num(s.Capacity), num(s.Performance), str(s.Addr)),
		q(sqlUpdateServer, num(s.Capacity), num(s.Performance), str(s.Addr), str(s.Name)))
	return err
}

// RemoveServer drops a server from the registry. Files striped over it
// keep their distribution rows; removing a server that still holds
// files is an administrative error the caller must avoid.
func (c *Catalog) RemoveServer(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.db.Exec(sqlDeleteServer, str(name))
	if err != nil {
		return err
	}
	if res.RowsAffected == 0 {
		return fmt.Errorf("meta: no such server %q", name)
	}
	return nil
}

// Servers lists registered servers ordered by name.
func (c *Catalog) Servers() ([]ServerInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.db.Exec(sqlListServers)
	if err != nil {
		return nil, err
	}
	return serverRows(res), nil
}

// serverRows decodes the rows of sqlListServers / sqlReadServer.
func serverRows(res *metadb.Result) []ServerInfo {
	out := make([]ServerInfo, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, ServerInfo{
			Name:        r[0].Str,
			Capacity:    r[1].Int,
			Performance: int(r[2].Int),
			Addr:        r[3].Str,
		})
	}
	return out
}

// Server returns one server's registration.
func (c *Catalog) Server(name string) (ServerInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.db.Exec(sqlReadServer, str(name))
	if err != nil {
		return ServerInfo{}, err
	}
	if len(res.Rows) == 0 {
		return ServerInfo{}, fmt.Errorf("meta: no such server %q", name)
	}
	return serverRows(res)[0], nil
}

// --- server health -----------------------------------------------------

// Server health states tracked in dpfs_server_health. Clients report
// transport failures (alive → suspect); the repair probe loop settles
// suspects into alive or dead by actually dialing them.
const (
	StateAlive   = "alive"
	StateSuspect = "suspect"
	StateDead    = "dead"
)

// HealthInfo is one row of DPFS-SERVER-HEALTH.
type HealthInfo struct {
	Name  string
	State string
	// Fails counts consecutive reported transport failures since the
	// last success.
	Fails int64
}

// ReportServerFailure records a client-observed transport failure
// against a server: its consecutive-failure count grows and an alive
// server becomes suspect. Only a probe (SetServerState) declares death;
// a burst of client reports alone cannot, since the fault may be on the
// client's side of the network.
func (c *Catalog) ReportServerFailure(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.atomically(
		q(sqlSeedHealth, str(name), str(StateAlive)),
		q(sqlCountFailure, str(name)),
		q(sqlMoveHealth, str(StateSuspect), str(name), str(StateAlive)))
	return err
}

// ReportServerOK records a successful exchange with a server, resetting
// it to alive with zero consecutive failures.
func (c *Catalog) ReportServerOK(name string) error {
	return c.SetServerState(name, StateAlive)
}

// SetServerState pins a server's health state (the probe loop's
// verdict). Alive resets the failure count.
func (c *Catalog) SetServerState(name, state string) error {
	switch state {
	case StateAlive, StateSuspect, StateDead:
	default:
		return fmt.Errorf("meta: unknown server state %q", state)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	set := sqlSetHealth
	if state == StateAlive {
		set = sqlResetHealth
	}
	_, err := c.atomically(
		q(sqlSeedHealth, str(name), str(state)),
		q(set, str(state), str(name)))
	return err
}

// ServerHealth lists the tracked health rows ordered by server name.
// Servers never reported on have no row and are presumed alive.
func (c *Catalog) ServerHealth() ([]HealthInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.db.Exec(sqlListHealth)
	if err != nil {
		return nil, err
	}
	out := make([]HealthInfo, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, HealthInfo{Name: r[0].Str, State: r[1].Str, Fails: r[2].Int})
	}
	return out, nil
}

// --- directories -------------------------------------------------------

// Mkdir creates a directory; the parent must exist.
func (c *Catalog) Mkdir(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	path, err := CleanPath(path)
	if err != nil {
		return err
	}
	if path == "/" {
		return errors.New("meta: root directory already exists")
	}
	parent, name := Split(path)
	if err := validName(name); err != nil {
		return err
	}
	res, err := c.begin(q(sqlReadEntry, str(parent)))
	if err != nil {
		return err
	}
	if err := dirEntry(res[0], parent); err != nil {
		return c.abort(err)
	}
	return c.commitEntry(path, q(sqlInsertEntry, str(path), str(parent), str(kindDir)))
}

// Rmdir removes an empty directory.
func (c *Catalog) Rmdir(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	path, err := CleanPath(path)
	if err != nil {
		return err
	}
	if path == "/" {
		return errors.New("meta: cannot remove the root directory")
	}
	res, err := c.begin(q(sqlReadEntry, str(path)), q(sqlCountDir, str(path)))
	if err != nil {
		return err
	}
	if err := dirEntry(res[0], path); err != nil {
		return c.abort(err)
	}
	if res[1].Rows[0][0].Int > 0 {
		return c.abort(fmt.Errorf("meta: directory %s not empty", path))
	}
	return c.commit(q(sqlDeleteEntry, str(path)))
}

// ReadDir lists a directory's sub-directories and files, both sorted.
func (c *Catalog) ReadDir(path string) (dirs, files []string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	path, err = CleanPath(path)
	if err != nil {
		return nil, nil, err
	}
	res, err := c.db.Batch([]metadb.Stmt{q(sqlReadEntry, str(path)), q(sqlListDir, str(path))})
	if err != nil {
		return nil, nil, err
	}
	if err := dirEntry(res[0], path); err != nil {
		return nil, nil, err
	}
	for _, r := range res[1].Rows {
		_, name := Split(r[0].Str)
		if r[1].Str == kindDir {
			dirs = append(dirs, name)
		} else {
			files = append(files, name)
		}
	}
	return dirs, files, nil
}

// IsDir reports whether path names an existing directory.
func (c *Catalog) IsDir(path string) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	path, err := CleanPath(path)
	if err != nil {
		return false, err
	}
	res, err := c.db.Exec(sqlReadEntry, str(path))
	if err != nil {
		return false, err
	}
	return dirEntry(res, path) == nil, nil
}

// dirEntry checks that the result of sqlReadEntry for path names a
// directory.
func dirEntry(res *metadb.Result, path string) error {
	if len(res.Rows) == 0 || res.Rows[0][0].Str != kindDir {
		return fmt.Errorf("meta: no such directory %s", path)
	}
	return nil
}

// commitEntry commits writes, the first of which gives path its entry.
// The entry's primary key is the name check: when the commit fails and
// path has an entry, the error says the name is taken.
func (c *Catalog) commitEntry(path string, writes ...metadb.Stmt) error {
	err := c.commit(writes...)
	if err != nil {
		if res, rerr := c.db.Exec(sqlReadEntry, str(path)); rerr == nil && len(res.Rows) > 0 {
			return fmt.Errorf("meta: %s already exists", path)
		}
	}
	return err
}

// --- files -------------------------------------------------------------

// CreateReplicated atomically records a new file whose bricks carry
// fi.Replicas replicas each — its directory entry, its DPFS-FILE-ATTR
// row and one DPFS-FILE-DISTRIBUTION row per server; assign maps
// [brick][rank] to an index into fi.Servers.
func (c *Catalog) CreateReplicated(fi FileInfo, assign [][]int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	path, err := CleanPath(fi.Path)
	if err != nil {
		return err
	}
	fi.Path = path
	parent, name := Split(path)
	if err := validName(name); err != nil {
		return err
	}
	if len(fi.Servers) == 0 {
		return errors.New("meta: file needs at least one server")
	}
	if err := fi.Geometry.Validate(); err != nil {
		return err
	}
	if fi.Replicas < 1 {
		fi.Replicas = 1
	}
	for b, set := range assign {
		if len(set) != fi.Replicas {
			return fmt.Errorf("meta: brick %d has %d replicas, want %d", b, len(set), fi.Replicas)
		}
	}
	res, err := c.begin(q(sqlReadEntry, str(parent)))
	if err != nil {
		return err
	}
	if err := dirEntry(res[0], parent); err != nil {
		return c.abort(err)
	}
	g := &fi.Geometry
	writes := []metadb.Stmt{
		q(sqlInsertEntry, str(path), str(parent), str(kindFile)),
		q(sqlInsertAttr,
			str(path), str(fi.Owner), num(fi.Perm), num(fi.Size), str(g.Level.String()),
			num(g.ElemSize), str(joinInts(g.Dims)), num(g.BrickBytes), str(joinInts(g.Tile)),
			str(joinPattern(g.Pattern)), str(joinInts(g.Grid)), str(fi.Placement),
			num(g.SlotBytes()), num(fi.Replicas)),
	}
	writes = append(writes, distInserts(path, fi.Servers, stripe.ReplicaLists(assign, len(fi.Servers)), fi.Generation)...)
	return c.commitEntry(path, writes...)
}

// distInserts builds one DPFS-FILE-DISTRIBUTION insert per server;
// servers and lists are aligned by srv_index.
func distInserts(path string, servers []string, lists [][]stripe.ReplicaEntry, gen int64) []metadb.Stmt {
	out := make([]metadb.Stmt, len(lists))
	for si, list := range lists {
		out[si] = q(sqlInsertDist, str(servers[si]), str(path), num(si), num(len(list)),
			str(stripe.FormatReplicaList(list)), num(gen))
	}
	return out
}

// LookupReplicated loads a file's meta data and reconstructs the full
// replica layout from the stored brick lists.
func (c *Catalog) LookupReplicated(path string) (FileInfo, *stripe.ReplicaSet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	path, err := CleanPath(path)
	if err != nil {
		return FileInfo{}, nil, err
	}
	// One read-only batch: both SELECTs see the same committed state, so
	// the attributes and the distribution belong to one incarnation of
	// the file even while it is being removed, re-created or repaired.
	both, err := c.db.Batch([]metadb.Stmt{q(sqlReadAttr, str(path)), q(sqlReadDist, str(path))})
	if err != nil {
		return FileInfo{}, nil, err
	}
	fi, err := attrRow(both[0], path)
	if err != nil {
		return FileInfo{}, nil, err
	}
	res := both[1]
	if len(res.Rows) == 0 {
		return FileInfo{}, nil, fmt.Errorf("meta: file %s has no distribution rows", path)
	}
	lists := make([][]stripe.ReplicaEntry, len(res.Rows))
	fi.Servers = make([]string, len(res.Rows))
	for _, r := range res.Rows {
		si := int(r[1].Int)
		if si < 0 || si >= len(res.Rows) {
			return FileInfo{}, nil, fmt.Errorf("meta: file %s has corrupt srv_index %d", path, si)
		}
		fi.Servers[si] = r[0].Str
		list, err := stripe.ParseReplicaList(r[2].Str)
		if err != nil {
			return FileInfo{}, nil, err
		}
		lists[si] = list
		fi.Generation = r[3].Int
	}
	rs, err := stripe.ReplicaSetFromLists(lists, fi.Geometry.NumBricks(), fi.Replicas)
	if err != nil {
		return FileInfo{}, nil, fmt.Errorf("meta: file %s: %w", path, err)
	}
	return fi, rs, nil
}

// UpdateDistribution atomically replaces a file's distribution rows
// with a new replica layout under a new generation — the repair path's
// commit point. servers and lists are aligned by srv_index; gen must
// come from NextGeneration so stale subfiles order below the new ones.
func (c *Catalog) UpdateDistribution(path string, servers []string, lists [][]stripe.ReplicaEntry, gen int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	path, err := CleanPath(path)
	if err != nil {
		return err
	}
	if len(servers) != len(lists) {
		return fmt.Errorf("meta: %d servers for %d brick lists", len(servers), len(lists))
	}
	res, err := c.begin(q(sqlReadAttr, str(path)))
	if err != nil {
		return err
	}
	if _, err := attrRow(res[0], path); err != nil {
		return c.abort(err)
	}
	writes := append([]metadb.Stmt{q(sqlDeleteDist, str(path))}, distInserts(path, servers, lists, gen)...)
	return c.commit(writes...)
}

// Files lists every file path in the catalog, sorted — the enumeration
// repair sweeps.
func (c *Catalog) Files() ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.db.Exec(sqlListFiles)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].Str)
	}
	return out, nil
}

// Stat returns a file's attributes without its distribution.
func (c *Catalog) Stat(path string) (FileInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	path, err := CleanPath(path)
	if err != nil {
		return FileInfo{}, err
	}
	res, err := c.db.Exec(sqlReadAttr, str(path))
	if err != nil {
		return FileInfo{}, err
	}
	return attrRow(res, path)
}

// attrRow decodes the result of sqlReadAttr for path.
func attrRow(res *metadb.Result, path string) (FileInfo, error) {
	if len(res.Rows) == 0 {
		return FileInfo{}, fmt.Errorf("meta: no such file %s", path)
	}
	r := res.Rows[0]
	level, err := stripe.ParseLevel(r[3].Str)
	if err != nil {
		return FileInfo{}, err
	}
	dims, err := splitInts(r[5].Str)
	if err != nil {
		return FileInfo{}, err
	}
	tile, err := splitInts(r[7].Str)
	if err != nil {
		return FileInfo{}, err
	}
	pattern, err := splitPattern(r[8].Str)
	if err != nil {
		return FileInfo{}, err
	}
	grid, err := splitInts(r[9].Str)
	if err != nil {
		return FileInfo{}, err
	}
	replicas := int(r[11].Int)
	if replicas < 1 {
		replicas = 1
	}
	return FileInfo{
		Path:  path,
		Owner: r[0].Str,
		Perm:  int(r[1].Int),
		Size:  r[2].Int,
		Geometry: stripe.Geometry{
			Level:      level,
			ElemSize:   r[4].Int,
			Dims:       dims,
			BrickBytes: r[6].Int,
			Tile:       tile,
			Pattern:    pattern,
			Grid:       grid,
		},
		Placement: r[10].Str,
		Replicas:  replicas,
	}, nil
}

// RemoveFile atomically deletes a file's attr row, distribution rows
// and directory entry, returning its former distribution so the caller
// can delete the subfiles on the I/O servers.
func (c *Catalog) RemoveFile(path string) (FileInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	path, err := CleanPath(path)
	if err != nil {
		return FileInfo{}, err
	}
	res, err := c.begin(q(sqlReadAttr, str(path)), q(sqlReadDistHome, str(path)))
	if err != nil {
		return FileInfo{}, err
	}
	fi, err := attrRow(res[0], path)
	if err != nil {
		return FileInfo{}, c.abort(err)
	}
	fi.Servers, fi.Generation = distHome(res[1])
	err = c.commit(
		q(sqlDeleteAttr, str(path)),
		q(sqlDeleteDist, str(path)),
		q(sqlDeleteEntry, str(path)))
	if err != nil {
		return FileInfo{}, err
	}
	return fi, nil
}

// distHome decodes the result of sqlReadDistHome: the servers in
// distribution order and the generation their rows carry.
func distHome(res *metadb.Result) (servers []string, gen int64) {
	for _, r := range res.Rows {
		servers = append(servers, r[0].Str)
		gen = r[1].Int
	}
	return servers, gen
}

// RenameFile atomically moves a file's catalog records to a new path
// (directory entry, attr row and distribution rows) and
// returns the server list and distribution generation so the caller
// can rename the subfiles. The destination's parent directory must
// exist and the destination must not.
func (c *Catalog) RenameFile(oldPath, newPath string) (servers []string, gen int64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	oldPath, err = CleanPath(oldPath)
	if err != nil {
		return nil, 0, err
	}
	newPath, err = CleanPath(newPath)
	if err != nil {
		return nil, 0, err
	}
	if oldPath == newPath {
		return nil, 0, fmt.Errorf("meta: rename %s onto itself", oldPath)
	}
	newParent, newName := Split(newPath)
	if err := validName(newName); err != nil {
		return nil, 0, err
	}
	res, err := c.begin(
		q(sqlReadAttr, str(oldPath)), q(sqlReadDistHome, str(oldPath)), q(sqlReadEntry, str(newParent)))
	if err != nil {
		return nil, 0, err
	}
	if _, err := attrRow(res[0], oldPath); err != nil {
		return nil, 0, c.abort(err)
	}
	servers, gen = distHome(res[1])
	if err := dirEntry(res[2], newParent); err != nil {
		return nil, 0, c.abort(err)
	}
	err = c.commitEntry(newPath,
		q(sqlMoveEntry, str(newPath), str(newParent), str(oldPath)),
		q(sqlRenameAttr, str(newPath), str(oldPath)),
		q(sqlRenameDist, str(newPath), str(oldPath)))
	if err != nil {
		return nil, 0, err
	}
	return servers, gen, nil
}

// ServerUsage is one row of the catalog's per-server load report.
type ServerUsage struct {
	Name        string
	Capacity    int64
	Performance int
	Files       int64 // files with at least one brick on the server
	Bricks      int64 // total bricks the server holds
}

// Usage aggregates DPFS-FILE-DISTRIBUTION per server (GROUP BY over
// the catalog) and merges in the DPFS-SERVER registrations; servers
// holding no files report zeros.
func (c *Catalog) Usage() ([]ServerUsage, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	both, err := c.db.Batch([]metadb.Stmt{q(sqlListServers), q(sqlUsageByServer)})
	if err != nil {
		return nil, err
	}
	servers, res := serverRows(both[0]), both[1]
	byName := make(map[string]*ServerUsage, len(servers))
	out := make([]ServerUsage, len(servers))
	for i, s := range servers {
		out[i] = ServerUsage{Name: s.Name, Capacity: s.Capacity, Performance: s.Performance}
		byName[s.Name] = &out[i]
	}
	for _, r := range res.Rows {
		if u, ok := byName[r[0].Str]; ok {
			u.Files = r[1].Int
			u.Bricks = r[2].Int
		}
	}
	return out, nil
}

// UsedBytes reports, per server, the bytes of subfile storage the
// catalog accounts for (bricks held x the owning file's slot size),
// computed with a join of DPFS-FILE-DISTRIBUTION and DPFS-FILE-ATTR
// grouped by server. The create path uses it to enforce DPFS-SERVER
// capacity.
func (c *Catalog) UsedBytes() (map[string]int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.db.Exec(sqlUsedBytes)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(res.Rows))
	for _, r := range res.Rows {
		out[r[0].Str] = r[1].Int
	}
	return out, nil
}

// FileOnServer is one row of FilesOnServer.
type FileOnServer struct {
	Path   string
	Size   int64
	Bricks int64
}

// FilesOnServer reports, via a join of DPFS-FILE-DISTRIBUTION with
// DPFS-FILE-ATTR, every file holding bricks on the named server — the
// query an administrator runs before retiring a storage machine.
func (c *Catalog) FilesOnServer(server string) ([]FileOnServer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.db.Exec(sqlFilesOnServer, str(server))
	if err != nil {
		return nil, err
	}
	out := make([]FileOnServer, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, FileOnServer{Path: r[0].Str, Size: r[1].Int, Bricks: r[2].Int})
	}
	return out, nil
}

// SetSize updates DPFS-FILE-ATTR.size after writes extend a file.
func (c *Catalog) SetSize(path string, size int64) error {
	return c.setAttr(path, sqlSetSize, num(size))
}

// SetPerm updates DPFS-FILE-ATTR.permission (chmod).
func (c *Catalog) SetPerm(path string, perm int) error {
	if perm < 0 || perm > 0o7777 {
		return fmt.Errorf("meta: invalid permission %o", perm)
	}
	return c.setAttr(path, sqlSetPerm, num(perm))
}

// SetOwner updates DPFS-FILE-ATTR.owner (chown).
func (c *Catalog) SetOwner(path, owner string) error {
	if err := validName(owner); err != nil {
		return err
	}
	return c.setAttr(path, sqlSetOwner, str(owner))
}

// setAttr runs one of the sqlSet* statements on a file's attr row.
func (c *Catalog) setAttr(path, set string, v metadb.Value) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	path, err := CleanPath(path)
	if err != nil {
		return err
	}
	res, err := c.db.Exec(set, v, str(path))
	if err != nil {
		return err
	}
	if res.RowsAffected == 0 {
		return fmt.Errorf("meta: no such file %s", path)
	}
	return nil
}

// --- helpers -----------------------------------------------------------

// CleanPath validates and canonicalizes an absolute DPFS path.
func CleanPath(p string) (string, error) {
	if p == "" || p[0] != '/' {
		return "", fmt.Errorf("meta: path %q must be absolute", p)
	}
	parts := strings.Split(p, "/")
	var stack []string
	for _, part := range parts {
		switch part {
		case "", ".":
		case "..":
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		default:
			if err := validName(part); err != nil {
				return "", err
			}
			stack = append(stack, part)
		}
	}
	return "/" + strings.Join(stack, "/"), nil
}

// Split returns the parent directory and base name of a cleaned path.
func Split(p string) (dir, name string) {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/", p[i+1:]
	}
	return p[:i], p[i+1:]
}

func validName(name string) error {
	if name == "" {
		return errors.New("meta: empty name")
	}
	if strings.ContainsAny(name, ",/\n") {
		return fmt.Errorf("meta: name %q contains a reserved character", name)
	}
	return nil
}

func joinInts(xs []int64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatInt(x, 10)
	}
	return strings.Join(parts, ",")
}

func splitInts(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("meta: bad integer list %q", s)
		}
		out[i] = v
	}
	return out, nil
}

func joinPattern(p []stripe.Dist) string {
	parts := make([]string, len(p))
	for i, d := range p {
		parts[i] = d.String()
	}
	return strings.Join(parts, ",")
}

func splitPattern(s string) ([]stripe.Dist, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]stripe.Dist, len(parts))
	for i, p := range parts {
		switch p {
		case "BLOCK":
			out[i] = stripe.DistBlock
		case "*":
			out[i] = stripe.DistStar
		default:
			return nil, fmt.Errorf("meta: bad pattern element %q", p)
		}
	}
	return out, nil
}
