package metadb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dpfs/internal/obs"
)

// Result is the outcome of one statement.
type Result struct {
	// Cols and Rows are set for SELECT.
	Cols []string
	Rows [][]Value
	// RowsAffected counts rows touched by INSERT/UPDATE/DELETE.
	RowsAffected int64
}

// Options configures a database.
type Options struct {
	// Dir is the durable storage directory; empty means in-memory only.
	Dir string
	// Sync makes every commit wait for a WAL fsync (or a snapshot) that
	// covers it before it is acknowledged. Committers append their
	// records under the write lock, so WAL order stays commit order,
	// then wait outside it: one of them leads each fsync and everyone
	// who appended before it started rides along (group commit), so
	// there are never more fsyncs than commits and a lone committer
	// pays exactly one each.
	Sync bool
	// CheckpointBytes triggers an automatic snapshot + WAL truncation
	// once the WAL grows past this size. Zero uses a default of 4 MiB;
	// negative disables automatic checkpoints.
	CheckpointBytes int64
	// SyncDelay models the storage device's per-fsync cost by sleeping
	// that long before every WAL fsync. It exists for benchmarks and
	// tests that need a deterministic device model independent of the
	// host filesystem (the WAL analogue of netsim's wire classes);
	// leave it zero in production.
	SyncDelay time.Duration
}

// DB is an embedded relational database. It is safe for concurrent use
// through any number of Sessions. Writes are serialized (strict
// two-phase locking at database granularity); readers outside write
// transactions run concurrently.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	closed bool

	reg   *obs.Registry
	plans planCache

	walMu sync.Mutex // serializes WAL appends and checkpoints (under mu)
	wal   *walFile
	opts  Options

	// Replication state (DESIGN.md §13). replSeq is the 1-based
	// sequence number of the last commit in the replicated log,
	// replLastEpoch the epoch stamped on that commit, and replEpoch the
	// epoch stamped on new commits. All three are guarded by mu;
	// replEpoch is additionally persisted in <dir>/epoch together with
	// the lease holder so a restarted replica cannot regress its term.
	replSeq       int64
	replLastEpoch int64
	replEpoch     int64
	replLeader    int
	repl          atomic.Pointer[ReplHooks]
}

// Metadata database metric names. Per-statement-kind latency
// histograms are named "query_<kind>_us" (query_select_us,
// query_insert_us, ...), in microseconds.
const (
	MetricQueries        = "queries_total"
	MetricWALAppends     = "wal_appends_total"
	MetricWALBytes       = "wal_bytes_total"
	MetricWALFsyncs      = "wal_fsyncs_total"
	MetricWALCheckpoints = "wal_checkpoints_total"
	// MetricWALGroupCommits counts fsyncs that covered more than one
	// commit (true group commits). MetricWALBatchSize is the
	// dimensionless histogram of commits covered per commit fsync.
	MetricWALGroupCommits = "wal_group_commits_total"
	MetricWALBatchSize    = "wal_batch_size"
)

// QueryMetric names the latency histogram for a statement kind.
func QueryMetric(kind string) string { return "query_" + kind + "_us" }

// Open creates or reopens a database. With a non-empty Options.Dir any
// existing snapshot and write-ahead log are recovered first.
func Open(opts Options) (*DB, error) {
	db := &DB{tables: make(map[string]*Table), opts: opts, reg: obs.NewRegistry()}
	if opts.CheckpointBytes == 0 {
		db.opts.CheckpointBytes = 4 << 20
	}
	if opts.Dir != "" {
		w, err := openWAL(opts.Dir, opts.Sync)
		if err != nil {
			return nil, err
		}
		w.reg = db.reg
		w.syncDelay = opts.SyncDelay
		db.wal = w
		if err := db.recover(); err != nil {
			w.close()
			return nil, err
		}
		if err := db.loadEpoch(); err != nil {
			w.close()
			return nil, err
		}
	}
	return db, nil
}

// Memory opens a throwaway in-memory database.
func Memory() *DB {
	db, _ := Open(Options{})
	return db
}

// Close checkpoints (when durable) and shuts the database down.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.wal != nil {
		if err := db.checkpointLocked(); err != nil {
			return err
		}
		return db.wal.close()
	}
	return nil
}

// Checkpoint forces a snapshot and truncates the WAL.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errors.New("metadb: database closed")
	}
	if db.wal == nil {
		return nil
	}
	return db.checkpointLocked()
}

// Metrics returns the database's metric registry: queries_total, the
// query_<kind>_us latency histograms, and the wal_* counters.
func (db *DB) Metrics() *obs.Registry { return db.reg }

// Session opens a new client session. Sessions are not themselves safe
// for concurrent use; open one per goroutine or connection.
func (db *DB) Session() *Session {
	return &Session{db: db}
}

// Exec runs one autocommitted statement on a fresh session: a
// convenience for callers that do not need transactions.
func (db *DB) Exec(sql string, args ...Value) (*Result, error) {
	return db.Session().Exec(sql, args...)
}

// Batch runs stmts with Session.Batch on a fresh session. The session
// ends with the call, so a transaction the batch leaves open is rolled
// back.
func (db *DB) Batch(stmts []Stmt) ([]*Result, error) {
	s := db.Session()
	defer s.Abort()
	return s.Batch(stmts)
}

// TableNames returns the current table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tableNamesLocked()
}

// Session is one client's connection to the database, carrying its
// transaction state.
type Session struct {
	db *DB
	tx *txState
}

type txState struct {
	locked bool // holds db.mu exclusively
	undo   []undoOp
	redo   []RedoOp
}

type undoOp struct {
	kind  string // "insert", "delete", "update", "create", "createindex"
	table string
	rowid int64
	vals  []Value // pre-image for delete/update
	index string  // index name for createindex
}

// RedoOp is one durable mutation in a WAL commit record.
type RedoOp struct {
	Kind  string // "insert", "delete", "update", "create", "createindex"
	Table string
	RowID int64
	Vals  []Value
	Cols  []ColumnDef
	Index string // index name for createindex
	Col   string // indexed column for createindex
}

// Exec executes one SQL statement with args bound, in order, to its '?'
// placeholders. The parsed form comes from the database's plan cache,
// so a text is parsed once however often and with whatever arguments
// it runs.
func (s *Session) Exec(sql string, args ...Value) (*Result, error) {
	p, err := s.db.plans.get(Stmt{SQL: sql, Args: args})
	if err != nil {
		return nil, err
	}
	return s.run(p, args)
}

// Batch executes stmts in order and stops at the first that fails: it
// returns the results of those that succeeded — so their count is the
// index of the failing statement — and that statement's error. Nothing
// is undone: an explicit transaction the batch opened stays open for
// the caller to ROLLBACK. A batch made only of SELECTs outside a
// transaction runs under one hold of the shared lock, so all of them
// read the same committed state.
func (s *Session) Batch(stmts []Stmt) ([]*Result, error) {
	var planErr error // why stmts[len(plans)] cannot run, if it cannot
	plans := make([]*plan, 0, len(stmts))
	snapshot := s.tx == nil
	for _, st := range stmts {
		p, err := s.db.plans.get(st)
		if err != nil {
			planErr = err
			break
		}
		if _, ok := p.st.(Select); !ok {
			snapshot = false
		}
		plans = append(plans, p)
	}
	exec := s.run
	if snapshot {
		db := s.db
		db.mu.RLock()
		defer db.mu.RUnlock()
		if db.closed {
			return nil, errors.New("metadb: database closed")
		}
		exec = func(p *plan, args []Value) (*Result, error) {
			start := time.Now()
			res, err := db.execSelect(p.st.(Select), args)
			db.observe(p, start)
			return res, err
		}
	}
	out := make([]*Result, 0, len(plans))
	for i, p := range plans {
		res, err := exec(p, stmts[i].Args)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, planErr
}

// stmtKind labels a statement for metrics.
func stmtKind(st Statement) string {
	switch st.(type) {
	case Begin:
		return "begin"
	case Commit:
		return "commit"
	case Rollback:
		return "rollback"
	case Select:
		return "select"
	case Explain:
		return "explain"
	case CreateTable:
		return "createtable"
	case CreateIndex:
		return "createindex"
	case Insert:
		return "insert"
	case Update:
		return "update"
	case Delete:
		return "delete"
	}
	return "other"
}

// run executes a planned statement and records its metrics.
func (s *Session) run(p *plan, args []Value) (*Result, error) {
	start := time.Now()
	res, err := s.execStmt(p.st, args)
	s.db.observe(p, start)
	return res, err
}

// observe counts one executed statement and its latency.
func (db *DB) observe(p *plan, start time.Time) {
	db.reg.Counter(MetricQueries).Inc()
	db.reg.Histogram(p.metric).Record(time.Since(start).Microseconds())
}

func (s *Session) execStmt(st Statement, args []Value) (*Result, error) {
	switch st := st.(type) {
	case Begin:
		if s.tx != nil {
			return nil, errors.New("metadb: transaction already open")
		}
		s.tx = &txState{}
		return &Result{}, nil
	case Commit:
		return s.commit()
	case Rollback:
		return s.rollback()
	case Select:
		return s.runRead(st, args)
	case Explain:
		db := s.db
		if s.tx != nil && s.tx.locked {
			// Already hold the exclusive lock.
			return db.explainSelect(st.Stmt)
		}
		db.mu.RLock()
		defer db.mu.RUnlock()
		if db.closed {
			return nil, errors.New("metadb: database closed")
		}
		return db.explainSelect(st.Stmt)
	case CreateTable, CreateIndex, Insert, Update, Delete:
		return s.runWrite(st, args)
	}
	return nil, fmt.Errorf("metadb: unhandled statement %T", st)
}

// Abort rolls back any open transaction (used when a client
// disconnects mid-transaction).
func (s *Session) Abort() {
	if s.tx != nil {
		_, _ = s.rollback()
	}
}

func (s *Session) commit() (*Result, error) {
	if s.tx == nil {
		return nil, errors.New("metadb: no transaction open")
	}
	tx := s.tx
	s.tx = nil
	if !tx.locked {
		return &Result{}, nil // read-only transaction
	}
	wait, seq, err := s.db.logCommit(tx.redo)
	if err != nil {
		// The WAL write failed; the safe reaction is to undo the
		// in-memory effects so memory and disk stay consistent.
		applyUndo(s.db, tx.undo)
		s.db.mu.Unlock()
		return nil, fmt.Errorf("metadb: commit failed, transaction rolled back: %w", err)
	}
	hooks := s.db.repl.Load()
	if hooks != nil && hooks.Ship != nil && seq > 0 {
		// Still under db.mu: ship order equals commit order. The hook
		// only enqueues; network and fsync costs stay off this path.
		hooks.Ship(seq, s.db.replEpoch, tx.redo)
	}
	s.db.mu.Unlock()
	if wait > 0 {
		// The record is appended (in commit order) but not yet
		// fsynced. Wait outside the write lock for a shared fsync — or
		// a snapshot — to cover it.
		if err := s.db.wal.waitDurable(wait); err != nil {
			// The shared fsync failed after the lock was released. The
			// transaction is applied in memory and later transactions
			// may already depend on it, so it cannot be rolled back;
			// report that durability was not achieved.
			return nil, fmt.Errorf("metadb: commit not durable: %w", err)
		}
	}
	if hooks != nil && hooks.Ack != nil && seq > 0 {
		// Replication: the commit is locally durable but must not be
		// acknowledged until enough replicas hold it (DESIGN.md §13).
		if err := hooks.Ack(seq); err != nil {
			return nil, fmt.Errorf("metadb: commit not replicated: %w", err)
		}
	}
	return &Result{}, nil
}

func (s *Session) rollback() (*Result, error) {
	if s.tx == nil {
		return nil, errors.New("metadb: no transaction open")
	}
	tx := s.tx
	s.tx = nil
	if !tx.locked {
		return &Result{}, nil
	}
	applyUndo(s.db, tx.undo)
	s.db.mu.Unlock()
	return &Result{}, nil
}

func applyUndo(db *DB, undo []undoOp) {
	for i := len(undo) - 1; i >= 0; i-- {
		op := undo[i]
		switch op.kind {
		case "insert": // undo an insert: delete the row
			if t := db.tables[op.table]; t != nil {
				t.delete(op.rowid)
			}
		case "delete": // undo a delete: restore the row
			if t := db.tables[op.table]; t != nil {
				t.insert(op.vals, op.rowid)
			}
		case "update":
			if t := db.tables[op.table]; t != nil {
				t.update(op.rowid, op.vals)
			}
		case "create": // undo create: drop
			delete(db.tables, op.table)
		case "createindex":
			if t := db.tables[op.table]; t != nil {
				t.dropIndex(op.index)
			}
		}
	}
}

// runRead executes a SELECT under the appropriate lock. Autocommit
// reads share an RLock; reads inside an explicit transaction take the
// exclusive lock for the life of the transaction (strict two-phase
// locking), so a read-modify-write transaction cannot lose its update
// to a concurrent transaction that read the same rows.
func (s *Session) runRead(st Select, args []Value) (*Result, error) {
	db := s.db
	if s.tx != nil {
		if !s.tx.locked {
			db.mu.Lock()
			if db.closed {
				db.mu.Unlock()
				return nil, errors.New("metadb: database closed")
			}
			s.tx.locked = true
		}
		return db.execSelect(st, args)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, errors.New("metadb: database closed")
	}
	return db.execSelect(st, args)
}

// runWrite executes a mutating statement, acquiring the exclusive lock
// for the life of the transaction (or just this statement when
// autocommitting).
func (s *Session) runWrite(st Statement, args []Value) (*Result, error) {
	db := s.db
	auto := s.tx == nil
	if auto {
		s.tx = &txState{}
	}
	if !s.tx.locked {
		db.mu.Lock()
		if db.closed {
			db.mu.Unlock()
			s.tx = nil
			return nil, errors.New("metadb: database closed")
		}
		s.tx.locked = true
	}
	res, err := db.execWrite(st, s.tx, args)
	if err != nil {
		if auto {
			// Autocommit statement failed: roll back its partial work.
			_, _ = s.rollback()
		}
		// In an explicit transaction the statement's own partial
		// effects were already undone by execWrite; the transaction
		// stays open for the client to COMMIT or ROLLBACK.
		return nil, err
	}
	if auto {
		if _, cerr := s.commit(); cerr != nil {
			return nil, cerr
		}
	}
	return res, nil
}

// execWrite dispatches a mutating statement; on error it undoes the
// statement's own partial effects so explicit transactions see
// statement atomicity. Caller holds the exclusive lock.
func (db *DB) execWrite(st Statement, tx *txState, args []Value) (*Result, error) {
	undoMark := len(tx.undo)
	redoMark := len(tx.redo)
	var (
		res *Result
		err error
	)
	switch st := st.(type) {
	case CreateTable:
		res, err = db.execCreate(st, tx)
	case CreateIndex:
		res, err = db.execCreateIndex(st, tx)
	case Insert:
		res, err = db.execInsert(st, tx, args)
	case Update:
		res, err = db.execUpdate(st, tx, args)
	case Delete:
		res, err = db.execDelete(st, tx, args)
	default:
		err = fmt.Errorf("metadb: unhandled write %T", st)
	}
	if err != nil {
		applyUndo(db, tx.undo[undoMark:])
		tx.undo = tx.undo[:undoMark]
		tx.redo = tx.redo[:redoMark]
		return nil, err
	}
	return res, nil
}

func (db *DB) table(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("metadb: no such table %q", name)
	}
	return t, nil
}

func (db *DB) execCreate(st CreateTable, tx *txState) (*Result, error) {
	if _, exists := db.tables[st.Name]; exists {
		if st.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("metadb: table %q already exists", st.Name)
	}
	t, err := NewTable(st.Name, st.Cols)
	if err != nil {
		return nil, err
	}
	db.tables[st.Name] = t
	tx.undo = append(tx.undo, undoOp{kind: "create", table: st.Name})
	tx.redo = append(tx.redo, RedoOp{Kind: "create", Table: st.Name, Cols: st.Cols})
	return &Result{}, nil
}

func (db *DB) execCreateIndex(st CreateIndex, tx *txState) (*Result, error) {
	t, err := db.table(st.Table)
	if err != nil {
		return nil, err
	}
	if _, exists := t.secondary[st.Name]; exists {
		if st.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("metadb: index %q already exists on table %q", st.Name, st.Table)
	}
	if err := t.createIndex(st.Name, st.Col); err != nil {
		return nil, err
	}
	tx.undo = append(tx.undo, undoOp{kind: "createindex", table: st.Table, index: st.Name})
	tx.redo = append(tx.redo, RedoOp{Kind: "createindex", Table: st.Table, Index: st.Name, Col: st.Col})
	return &Result{}, nil
}

func (db *DB) execInsert(st Insert, tx *txState, args []Value) (*Result, error) {
	t, err := db.table(st.Table)
	if err != nil {
		return nil, err
	}
	cols := st.Cols
	if cols == nil {
		cols = make([]string, len(t.Cols))
		for i, c := range t.Cols {
			cols[i] = c.Name
		}
	}
	colPos := make([]int, len(cols))
	for i, c := range cols {
		p, err := t.ColIndex(c)
		if err != nil {
			return nil, err
		}
		colPos[i] = p
	}
	var n int64
	ctx := &evalCtx{args: args}
	for _, rowExprs := range st.Rows {
		if len(rowExprs) != len(cols) {
			return nil, fmt.Errorf("metadb: INSERT has %d values for %d columns", len(rowExprs), len(cols))
		}
		vals := make([]Value, len(t.Cols)) // unset columns are NULL
		for i := range vals {
			vals[i] = Null()
		}
		for i, e := range rowExprs {
			v, err := eval(e, ctx)
			if err != nil {
				return nil, err
			}
			vals[colPos[i]] = v
		}
		checked, err := t.coerceRow(vals)
		if err != nil {
			return nil, err
		}
		if err := t.conflict(checked, 0); err != nil {
			if st.OrIgnore {
				continue
			}
			return nil, err
		}
		rid := t.insert(checked, 0)
		tx.undo = append(tx.undo, undoOp{kind: "insert", table: t.Name, rowid: rid})
		tx.redo = append(tx.redo, RedoOp{Kind: "insert", Table: t.Name, RowID: rid, Vals: checked})
		n++
	}
	return &Result{RowsAffected: n}, nil
}

// matchRows returns the rowids satisfying the WHERE clause, using the
// primary-key or a secondary index for simple equality predicates.
func (db *DB) matchRows(t *Table, where Expr, args []Value) ([]int64, error) {
	if ids, ok := pointLookup(t, t.Name, where, args); ok {
		return ids, nil
	}
	var out []int64
	ctx := &evalCtx{args: args}
	for _, rid := range t.scanIDs() {
		if where != nil {
			ctx.lookup = rowEnv(t, t.rows[rid])
			v, err := eval(where, ctx)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.Truth() {
				continue
			}
		}
		out = append(out, rid)
	}
	return out, nil
}

func rowEnv(t *Table, vals []Value) env {
	return func(qual, name string) (Value, error) {
		if qual != "" && qual != t.Name {
			return Value{}, fmt.Errorf("metadb: unknown table qualifier %q", qual)
		}
		i, err := t.ColIndex(name)
		if err != nil {
			return Value{}, err
		}
		return vals[i], nil
	}
}

func (db *DB) execUpdate(st Update, tx *txState, args []Value) (*Result, error) {
	t, err := db.table(st.Table)
	if err != nil {
		return nil, err
	}
	colPos := make([]int, len(st.Cols))
	for i, c := range st.Cols {
		p, err := t.ColIndex(c)
		if err != nil {
			return nil, err
		}
		colPos[i] = p
	}
	rids, err := db.matchRows(t, st.Where, args)
	if err != nil {
		return nil, err
	}
	var n int64
	for _, rid := range rids {
		old := t.rows[rid]
		vals := append([]Value(nil), old...)
		for i, e := range st.Exprs {
			v, err := eval(e, &evalCtx{args: args, lookup: rowEnv(t, old)})
			if err != nil {
				return nil, err
			}
			vals[colPos[i]] = v
		}
		checked, err := t.checkRow(vals, rid)
		if err != nil {
			return nil, err
		}
		pre, _ := t.update(rid, checked)
		tx.undo = append(tx.undo, undoOp{kind: "update", table: t.Name, rowid: rid, vals: pre})
		tx.redo = append(tx.redo, RedoOp{Kind: "update", Table: t.Name, RowID: rid, Vals: checked})
		n++
	}
	return &Result{RowsAffected: n}, nil
}

func (db *DB) execDelete(st Delete, tx *txState, args []Value) (*Result, error) {
	t, err := db.table(st.Table)
	if err != nil {
		return nil, err
	}
	rids, err := db.matchRows(t, st.Where, args)
	if err != nil {
		return nil, err
	}
	var n int64
	for _, rid := range rids {
		vals, ok := t.delete(rid)
		if !ok {
			continue
		}
		tx.undo = append(tx.undo, undoOp{kind: "delete", table: t.Name, rowid: rid, vals: vals})
		tx.redo = append(tx.redo, RedoOp{Kind: "delete", Table: t.Name, RowID: rid})
		n++
	}
	return &Result{RowsAffected: n}, nil
}
