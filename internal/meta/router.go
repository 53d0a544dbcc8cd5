package meta

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"dpfs/internal/obs"
	"dpfs/internal/stripe"
)

// Router is the catalog surface the engine, repair runner and shell
// consume, abstracted so it can be served by one catalog or by N
// path-hash-routed catalog shards. *Catalog itself is a Router (the
// N=1 case, byte-for-byte today's behavior); ShardRouter fans the same
// operations out over several catalogs. Path-keyed operations go to
// the path's home shard, server-registry and health writes broadcast
// to every shard, and enumerations (Servers, Files, Usage, ReadDir,
// ...) are merged views across shards.
type Router interface {
	// SetTraceSpan forwards the trace parent to the underlying
	// connection(s); nil disables propagation.
	SetTraceSpan(*obs.Span)
	// Init creates the catalog tables on every shard (idempotent).
	Init() error
	// NextGeneration allocates a distribution generation from the
	// path's home shard. Generations are only compared between
	// distributions of the same path, so per-shard counters preserve
	// the ordering the I/O servers rely on.
	NextGeneration(path string) (int64, error)

	RegisterServer(s ServerInfo) error
	RemoveServer(name string) error
	Servers() ([]ServerInfo, error)
	Server(name string) (ServerInfo, error)
	ReportServerFailure(name string) error
	ReportServerOK(name string) error
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

	SetSize(path string, size int64) error
	SetPerm(path string, perm int) error
	SetOwner(path, owner string) error
}

var (
	_ Router = (*Catalog)(nil)
	_ Router = (*ShardRouter)(nil)
)

// ShardIndex maps a path to its home shard among n by FNV-1a hash of
// the cleaned path (so /a//b and /a/b agree). It is the routing
// function of ShardRouter, exported so tests and tools can predict
// where a path's rows live.
func ShardIndex(path string, n int) int {
	if n <= 1 {
		return 0
	}
	if clean, err := CleanPath(path); err == nil {
		path = clean
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(path))
	return int(h.Sum32() % uint32(n))
}

// ShardRouter routes catalog operations across N shards by path hash.
// Each shard holds the file rows (attr, distribution, generation) of
// the paths that hash to it; the server registry and health tables are
// written to every shard so any shard can answer placement queries
// over its own files. Directories exist on every shard (Mkdir
// broadcasts) with each shard listing only the files it homes, so
// ReadDir is a merge. Renames across shards are not supported yet —
// moving a file's rows between shards needs a cross-shard transaction
// this layer does not have.
type ShardRouter struct {
	shards []Router
}

// NewShardRouter builds a Router over the given shards in shard-index
// order. At least one shard is required; one shard reproduces a plain
// catalog exactly.
func NewShardRouter(shards ...Router) *ShardRouter {
	if len(shards) == 0 {
		panic("meta: NewShardRouter needs at least one shard")
	}
	return &ShardRouter{shards: shards}
}

// Shards returns the number of shards behind the router.
func (r *ShardRouter) Shards() int { return len(r.shards) }

// shard returns the home shard for a path.
func (r *ShardRouter) shard(path string) Router {
	return r.shards[ShardIndex(path, len(r.shards))]
}

// broadcast applies op to every shard in index order, returning the
// first error (later shards are still attempted so the shards drift as
// little as possible).
func (r *ShardRouter) broadcast(op func(Router) error) error {
	var first error
	for _, s := range r.shards {
		if err := op(s); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SetTraceSpan forwards the trace parent to every shard.
func (r *ShardRouter) SetTraceSpan(sp *obs.Span) {
	for _, s := range r.shards {
		s.SetTraceSpan(sp)
	}
}

// Init creates the catalog tables on every shard.
func (r *ShardRouter) Init() error {
	for _, s := range r.shards {
		if err := s.Init(); err != nil {
			return err
		}
	}
	return nil
}

// NextGeneration allocates a generation from the path's home shard,
// keeping every generation ever issued for a path on one counter.
func (r *ShardRouter) NextGeneration(path string) (int64, error) {
	return r.shard(path).NextGeneration(path)
}

// RegisterServer records the server on every shard.
func (r *ShardRouter) RegisterServer(s ServerInfo) error {
	return r.broadcast(func(sh Router) error { return sh.RegisterServer(s) })
}

// RemoveServer drops the server from every shard.
func (r *ShardRouter) RemoveServer(name string) error {
	return r.broadcast(func(sh Router) error { return sh.RemoveServer(name) })
}

// Servers returns the merged server registry (first shard wins on
// conflicting rows, which only happens when a broadcast half-failed).
func (r *ShardRouter) Servers() ([]ServerInfo, error) {
	seen := make(map[string]bool)
	out := make([]ServerInfo, 0)
	for _, s := range r.shards {
		infos, err := s.Servers()
		if err != nil {
			return nil, err
		}
		for _, si := range infos {
			if !seen[si.Name] {
				seen[si.Name] = true
				out = append(out, si)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Server returns the first shard's registration of the named server.
func (r *ShardRouter) Server(name string) (ServerInfo, error) {
	var lastErr error
	for _, s := range r.shards {
		si, err := s.Server(name)
		if err == nil {
			return si, nil
		}
		lastErr = err
	}
	return ServerInfo{}, lastErr
}

// ReportServerFailure records the failure on every shard.
func (r *ShardRouter) ReportServerFailure(name string) error {
	return r.broadcast(func(sh Router) error { return sh.ReportServerFailure(name) })
}

// ReportServerOK resets the server to alive on every shard.
func (r *ShardRouter) ReportServerOK(name string) error {
	return r.broadcast(func(sh Router) error { return sh.ReportServerOK(name) })
}

// SetServerState pins the state on every shard.
func (r *ShardRouter) SetServerState(name, state string) error {
	return r.broadcast(func(sh Router) error { return sh.SetServerState(name, state) })
}

// healthRank orders states by severity for the merged health view.
func healthRank(state string) int {
	switch state {
	case StateDead:
		return 2
	case StateSuspect:
		return 1
	}
	return 0
}

// ServerHealth merges the shards' health rows by server name: the
// worst state wins and the failure count is the maximum reported.
func (r *ShardRouter) ServerHealth() ([]HealthInfo, error) {
	merged := make(map[string]HealthInfo)
	for _, s := range r.shards {
		rows, err := s.ServerHealth()
		if err != nil {
			return nil, err
		}
		for _, h := range rows {
			cur, ok := merged[h.Name]
			if !ok {
				merged[h.Name] = h
				continue
			}
			if healthRank(h.State) > healthRank(cur.State) {
				cur.State = h.State
			}
			if h.Fails > cur.Fails {
				cur.Fails = h.Fails
			}
			merged[h.Name] = cur
		}
	}
	out := make([]HealthInfo, 0, len(merged))
	for _, h := range merged {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Mkdir creates the directory on every shard (each shard resolves
// parents for the files it homes). A failure rolls the directory back
// off the shards that already created it.
func (r *ShardRouter) Mkdir(path string) error {
	for i, s := range r.shards {
		if err := s.Mkdir(path); err != nil {
			for j := i - 1; j >= 0; j-- {
				_ = r.shards[j].Rmdir(path)
			}
			return err
		}
	}
	return nil
}

// Rmdir removes the directory from every shard. It first verifies the
// directory is empty on all shards so a half-applied remove (possible
// if a shard fails mid-broadcast) cannot orphan files.
func (r *ShardRouter) Rmdir(path string) error {
	for _, s := range r.shards {
		subs, files, err := s.ReadDir(path)
		if err != nil {
			return err
		}
		if len(subs) > 0 || len(files) > 0 {
			return fmt.Errorf("meta: directory %s not empty", path)
		}
	}
	return r.broadcast(func(sh Router) error { return sh.Rmdir(path) })
}

// ReadDir merges the directory listing across shards: sub-directories
// exist everywhere (deduplicated), files live on their home shard.
func (r *ShardRouter) ReadDir(path string) (dirs, files []string, err error) {
	seenDir := make(map[string]bool)
	for _, s := range r.shards {
		ds, fs, err := s.ReadDir(path)
		if err != nil {
			return nil, nil, err
		}
		for _, d := range ds {
			if !seenDir[d] {
				seenDir[d] = true
				dirs = append(dirs, d)
			}
		}
		files = append(files, fs...)
	}
	sort.Strings(dirs)
	sort.Strings(files)
	return dirs, files, nil
}

// IsDir asks the path's home shard (directories exist on all shards).
func (r *ShardRouter) IsDir(path string) (bool, error) {
	return r.shard(path).IsDir(path)
}

// CreateReplicated records the file on its home shard.
func (r *ShardRouter) CreateReplicated(fi FileInfo, assign [][]int) error {
	return r.shard(fi.Path).CreateReplicated(fi, assign)
}

// LookupReplicated loads the file from its home shard.
func (r *ShardRouter) LookupReplicated(path string) (FileInfo, *stripe.ReplicaSet, error) {
	return r.shard(path).LookupReplicated(path)
}

// UpdateDistribution replaces the file's distribution on its home
// shard.
func (r *ShardRouter) UpdateDistribution(path string, servers []string, lists [][]stripe.ReplicaEntry, gen int64) error {
	return r.shard(path).UpdateDistribution(path, servers, lists, gen)
}

// Files returns the sorted union of every shard's file list.
func (r *ShardRouter) Files() ([]string, error) {
	out := make([]string, 0)
	for _, s := range r.shards {
		fs, err := s.Files()
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	sort.Strings(out)
	return out, nil
}

// Stat loads the file's attributes from its home shard.
func (r *ShardRouter) Stat(path string) (FileInfo, error) {
	return r.shard(path).Stat(path)
}

// RemoveFile deletes the file from its home shard.
func (r *ShardRouter) RemoveFile(path string) (FileInfo, error) {
	return r.shard(path).RemoveFile(path)
}

// ErrCrossShardRename reports a rename whose source and destination
// hash to different shards, which ShardRouter cannot perform (moving a
// file's rows between shards needs a cross-shard transaction this
// layer does not have). Match it with errors.Is(err,
// ErrCrossShardRename); the returned error also carries both paths and
// both shard indices for operators (errors.As with
// *CrossShardRenameError).
var ErrCrossShardRename = errors.New("meta: cross-shard rename not supported")

// CrossShardRenameError is the concrete error behind
// ErrCrossShardRename, naming the offending rename.
type CrossShardRenameError struct {
	OldPath, NewPath   string
	OldShard, NewShard int
}

func (e *CrossShardRenameError) Error() string {
	return fmt.Sprintf("meta: rename %s (shard %d) -> %s (shard %d): cross-shard rename not supported",
		e.OldPath, e.OldShard, e.NewPath, e.NewShard)
}

// Is makes errors.Is(err, ErrCrossShardRename) match.
func (e *CrossShardRenameError) Is(target error) bool { return target == ErrCrossShardRename }

// RenameFile moves the file when source and destination hash to the
// same shard; cross-shard renames fail with ErrCrossShardRename (they
// need a cross-shard transaction this layer does not have).
func (r *ShardRouter) RenameFile(oldPath, newPath string) (servers []string, gen int64, err error) {
	oi := ShardIndex(oldPath, len(r.shards))
	ni := ShardIndex(newPath, len(r.shards))
	if oi != ni {
		return nil, 0, &CrossShardRenameError{
			OldPath: oldPath, NewPath: newPath, OldShard: oi, NewShard: ni,
		}
	}
	return r.shards[oi].RenameFile(oldPath, newPath)
}

// Usage merges per-server usage across shards: registration fields
// come from the first shard reporting the server, file and brick
// counts are summed.
func (r *ShardRouter) Usage() ([]ServerUsage, error) {
	merged := make(map[string]ServerUsage)
	var order []string
	for _, s := range r.shards {
		rows, err := s.Usage()
		if err != nil {
			return nil, err
		}
		for _, u := range rows {
			cur, ok := merged[u.Name]
			if !ok {
				merged[u.Name] = u
				order = append(order, u.Name)
				continue
			}
			cur.Files += u.Files
			cur.Bricks += u.Bricks
			merged[u.Name] = cur
		}
	}
	sort.Strings(order)
	out := make([]ServerUsage, 0, len(order))
	for _, name := range order {
		out = append(out, merged[name])
	}
	return out, nil
}

// UsedBytes sums the per-server accounted bytes across shards.
func (r *ShardRouter) UsedBytes() (map[string]int64, error) {
	out := make(map[string]int64)
	for _, s := range r.shards {
		m, err := s.UsedBytes()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

// FilesOnServer merges each shard's report for the server, sorted by
// path.
func (r *ShardRouter) FilesOnServer(server string) ([]FileOnServer, error) {
	out := make([]FileOnServer, 0)
	for _, s := range r.shards {
		rows, err := s.FilesOnServer(server)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// SetSize updates the size on the file's home shard.
func (r *ShardRouter) SetSize(path string, size int64) error {
	return r.shard(path).SetSize(path, size)
}

// SetPerm updates the permission on the file's home shard.
func (r *ShardRouter) SetPerm(path string, perm int) error {
	return r.shard(path).SetPerm(path, perm)
}

// SetOwner updates the owner on the file's home shard.
func (r *ShardRouter) SetOwner(path, owner string) error {
	return r.shard(path).SetOwner(path, owner)
}
