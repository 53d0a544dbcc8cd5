// Package cache implements the DPFS client-side caches: a metadata
// cache that lets Open/Stat skip the metadata database on the hot path,
// and a bounded brick data cache that serves repeated reads locally.
//
// DPFS keeps every file attribute and distribution row in relational
// tables reached over the network (Section 5 of the paper), so an
// uncached client pays a metadb round trip per Open and re-fetches
// bricks it was just served. Both caches are private to one client
// engine (one core.FS): entries expire on a TTL and are explicitly
// invalidated by the operations of the owning client (create, remove,
// rename, overlapping writes). There is no cross-client coherence
// protocol — a concurrent writer in another process is detected by the
// distribution-row generation check (see internal/server and DESIGN.md
// §9), not hidden by the cache.
//
// The data cache is an LRU bounded by bytes. Entries are whole bricks
// keyed by (path, generation, brick index); fills are guarded by an
// invalidation token so a read racing an overlapping write can never
// install pre-write bytes after the write's invalidation ran.
package cache

import (
	"container/list"
	"sync"
	"time"

	"dpfs/internal/meta"
	"dpfs/internal/obs"
	"dpfs/internal/stripe"
)

// Cache metric names, registered in the owning engine's obs.Registry.
const (
	// MetricMetaHits counts metadata lookups served from cache.
	MetricMetaHits = "cache_meta_hits_total"
	// MetricMetaMisses counts metadata lookups that went to the catalog.
	MetricMetaMisses = "cache_meta_misses_total"
	// MetricMetaInvalidations counts explicit metadata invalidations.
	MetricMetaInvalidations = "cache_meta_invalidations_total"
	// MetricDataHits counts bricks served from the data cache.
	MetricDataHits = "cache_data_hits_total"
	// MetricDataMisses counts bricks that had to travel the network.
	MetricDataMisses = "cache_data_misses_total"
	// MetricDataEvictions counts bricks evicted by the LRU byte budget.
	MetricDataEvictions = "cache_data_evictions_total"
	// MetricDataBytes gauges the bytes currently held by the data cache.
	MetricDataBytes = "cache_data_bytes"
	// MetricPrefetch counts bricks fetched by readahead.
	MetricPrefetch = "cache_prefetch_total"
)

// Meta caches catalog lookups: file records (attributes plus the
// brick→server assignment of the distribution rows) and the DPFS-SERVER
// registry. Entries expire ttl after insertion; the owning engine
// invalidates eagerly on its own create/remove/rename. Safe for
// concurrent use.
type Meta struct {
	ttl time.Duration
	now func() time.Time // injectable clock for TTL tests

	mu      sync.Mutex
	reg     *obs.Registry
	files   map[string]fileEntry
	servers map[string]serverEntry
	list    *listEntry // cached full server listing
}

type fileEntry struct {
	fi      meta.FileInfo
	rs      *stripe.ReplicaSet
	expires time.Time
}

type serverEntry struct {
	si      meta.ServerInfo
	expires time.Time
}

type listEntry struct {
	infos   []meta.ServerInfo
	expires time.Time
}

// NewMeta builds a metadata cache with the given TTL. reg receives the
// hit/miss/invalidation counters; nil uses a private registry.
func NewMeta(ttl time.Duration, reg *obs.Registry) *Meta {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Meta{
		ttl:     ttl,
		now:     time.Now,
		reg:     reg,
		files:   make(map[string]fileEntry),
		servers: make(map[string]serverEntry),
	}
}

// SetMetrics redirects the cache's counters to reg (the engine forwards
// its own SetMetrics so shared bench registries see cache traffic).
func (m *Meta) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.mu.Lock()
	m.reg = reg
	m.mu.Unlock()
}

// GetFile returns a cached file record. The FileInfo and replica set
// are shared, not copied: callers must treat them as immutable, exactly
// as they treat a catalog LookupReplicated result.
func (m *Meta) GetFile(path string) (meta.FileInfo, *stripe.ReplicaSet, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.files[path]
	if !ok || m.now().After(e.expires) {
		if ok {
			delete(m.files, path)
		}
		m.reg.Counter(MetricMetaMisses).Inc()
		return meta.FileInfo{}, nil, false
	}
	m.reg.Counter(MetricMetaHits).Inc()
	return e.fi, e.rs, true
}

// PutFile caches a file record under fi.Path.
func (m *Meta) PutFile(fi meta.FileInfo, rs *stripe.ReplicaSet) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[fi.Path] = fileEntry{fi: fi, rs: rs, expires: m.now().Add(m.ttl)}
}

// InvalidateFile drops a path's cached record (create, remove, rename,
// resize).
func (m *Meta) InvalidateFile(path string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; ok {
		delete(m.files, path)
		m.reg.Counter(MetricMetaInvalidations).Inc()
	}
}

// GetServer returns a cached DPFS-SERVER row.
func (m *Meta) GetServer(name string) (meta.ServerInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.servers[name]
	if !ok || m.now().After(e.expires) {
		if ok {
			delete(m.servers, name)
		}
		m.reg.Counter(MetricMetaMisses).Inc()
		return meta.ServerInfo{}, false
	}
	m.reg.Counter(MetricMetaHits).Inc()
	return e.si, true
}

// PutServer caches one DPFS-SERVER row.
func (m *Meta) PutServer(si meta.ServerInfo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.servers[si.Name] = serverEntry{si: si, expires: m.now().Add(m.ttl)}
}

// GetServers returns the cached full server listing.
func (m *Meta) GetServers() ([]meta.ServerInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.list == nil || m.now().After(m.list.expires) {
		m.list = nil
		m.reg.Counter(MetricMetaMisses).Inc()
		return nil, false
	}
	m.reg.Counter(MetricMetaHits).Inc()
	return m.list.infos, true
}

// PutServers caches the full server listing (and each row).
func (m *Meta) PutServers(infos []meta.ServerInfo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	exp := m.now().Add(m.ttl)
	m.list = &listEntry{infos: infos, expires: exp}
	for _, si := range infos {
		m.servers[si.Name] = serverEntry{si: si, expires: exp}
	}
}

// BrickKey identifies one cached brick: the file path, the file's
// distribution generation (so a recreated file can never alias its
// predecessor's bytes), and the brick index.
type BrickKey struct {
	Path  string
	Gen   int64
	Brick int
}

// Data is the brick data cache: an LRU over whole bricks, bounded by a
// byte budget. Put keeps the slice it is given and Get returns that
// slice itself (never mutated after insertion), so a fill lands once in
// the brick the cache keeps and a hit copies once into the caller's
// buffer. Safe for concurrent use.
type Data struct {
	capacity int64

	mu   sync.Mutex
	size int64
	lru  *list.List // front = most recent; values are *dataEntry
	m    map[BrickKey]*list.Element

	// The registry's counters and gauge the cache updates, looked up
	// once per registry (SetMetrics swaps them).
	hits, misses, evictions *obs.Counter
	bytes                   *obs.Gauge

	// Fill poisoning: seq counts invalidations; a fill's token is the
	// seq observed before its network fetch began, and Put refuses the
	// fill when its key was invalidated after that point. poison maps
	// key → seq of its last invalidation; when it grows past poisonMax
	// it is cleared and clearSeq advances, which rejects every fill
	// older than the clear (over-rejection is safe, staleness is not).
	seq      uint64
	clearSeq uint64
	poison   map[BrickKey]uint64
}

type dataEntry struct {
	key  BrickKey
	data []byte
}

// poisonMax bounds the poison map; see the field comment on Data.
const poisonMax = 1 << 16

// NewData builds a data cache bounded to capacity bytes. reg receives
// the hit/miss/eviction counters and the byte gauge; nil uses a private
// registry.
func NewData(capacity int64, reg *obs.Registry) *Data {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	d := &Data{
		capacity: capacity,
		lru:      list.New(),
		m:        make(map[BrickKey]*list.Element),
		poison:   make(map[BrickKey]uint64),
	}
	d.useMetrics(reg)
	return d
}

// SetMetrics redirects the cache's counters to reg.
func (d *Data) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	d.mu.Lock()
	d.useMetrics(reg)
	d.mu.Unlock()
}

func (d *Data) useMetrics(reg *obs.Registry) {
	d.hits, d.misses = reg.Counter(MetricDataHits), reg.Counter(MetricDataMisses)
	d.evictions, d.bytes = reg.Counter(MetricDataEvictions), reg.Gauge(MetricDataBytes)
}

// Get returns the cached brick and promotes it. The returned slice is
// owned by the cache and must only be read.
func (d *Data) Get(k BrickKey) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	el, ok := d.m[k]
	if !ok {
		d.misses.Inc()
		return nil, false
	}
	d.lru.MoveToFront(el)
	d.hits.Inc()
	return el.Value.(*dataEntry).data, true
}

// Token snapshots the invalidation sequence. Take one before starting a
// network fetch and hand it to Put with the fetched bytes.
func (d *Data) Token() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// Put inserts data under k, evicting LRU entries to stay within the
// byte budget. The cache keeps data itself, not a copy: once Put
// returns true the slice is the cache's, and the caller must not write
// it again. The fill is dropped (returning false, and data stays the
// caller's) when k was invalidated after tok was taken — the fetched
// bytes may predate an acknowledged overlapping write — or when data
// alone exceeds the whole budget.
func (d *Data) Put(k BrickKey, data []byte, tok uint64) bool {
	n := int64(len(data))
	if n == 0 || n > d.capacity {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if tok < d.clearSeq {
		return false
	}
	if s, ok := d.poison[k]; ok && s > tok {
		return false
	}
	if el, ok := d.m[k]; ok {
		// Replace in place (a concurrent fill of the same brick).
		e := el.Value.(*dataEntry)
		d.size += n - int64(len(e.data))
		e.data = data
		d.lru.MoveToFront(el)
	} else {
		e := &dataEntry{key: k, data: data}
		d.m[k] = d.lru.PushFront(e)
		d.size += n
	}
	for d.size > d.capacity {
		back := d.lru.Back()
		if back == nil {
			break
		}
		d.removeLocked(back)
		d.evictions.Inc()
	}
	d.bytes.Set(d.size)
	return true
}

// Invalidate drops one brick and poisons its in-flight fills.
func (d *Data) Invalidate(k BrickKey) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.invalidateLocked(k)
	d.bytes.Set(d.size)
}

// InvalidatePath drops every cached brick of a path (any generation)
// and poisons their in-flight fills.
func (d *Data) InvalidatePath(path string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var victims []BrickKey
	for el := d.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*dataEntry); e.key.Path == path {
			victims = append(victims, e.key)
		}
	}
	for _, k := range victims {
		d.invalidateLocked(k)
	}
	// Poison fills of bricks not currently cached too: a remove/rename
	// may race a fill of a brick evicted moments ago. Bumping seq and
	// clearing from clearSeq forward rejects every fill started before
	// this call, for any key — coarse, but path-wide invalidations are
	// rare (remove, rename) and over-rejection only costs a refetch.
	d.seq++
	d.clearSeq = d.seq
	d.poison = make(map[BrickKey]uint64)
	d.bytes.Set(d.size)
}

func (d *Data) invalidateLocked(k BrickKey) {
	d.seq++
	d.poison[k] = d.seq
	if len(d.poison) > poisonMax {
		d.poison = make(map[BrickKey]uint64)
		d.clearSeq = d.seq
	}
	if el, ok := d.m[k]; ok {
		d.removeLocked(el)
	}
}

func (d *Data) removeLocked(el *list.Element) {
	e := el.Value.(*dataEntry)
	d.lru.Remove(el)
	delete(d.m, e.key)
	d.size -= int64(len(e.data))
}

// Len reports the number of cached bricks.
func (d *Data) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lru.Len()
}

// Bytes reports the bytes currently cached.
func (d *Data) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size
}
