package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"dpfs/internal/meta"
	"dpfs/internal/obs"
	"dpfs/internal/stripe"
)

// testReplicaSet builds an unreplicated layout over two servers for
// the four-brick test file.
func testReplicaSet(t *testing.T) *stripe.ReplicaSet {
	t.Helper()
	lists := stripe.ReplicaLists([][]int{{0}, {1}, {0}, {1}}, 2)
	rs, err := stripe.ReplicaSetFromLists(lists, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestMetaTTLAndInvalidation(t *testing.T) {
	now := time.Unix(1000, 0)
	m := NewMeta(time.Second, nil)
	m.now = func() time.Time { return now }

	fi := meta.FileInfo{Path: "/a", Size: 42, Generation: 7}
	rs := testReplicaSet(t)
	m.PutFile(fi, rs)

	got, gotRS, ok := m.GetFile("/a")
	if !ok || got.Size != 42 || got.Generation != 7 || gotRS == nil || len(gotRS.Primary()) != 4 {
		t.Fatalf("GetFile = %+v %v %v, want cached entry", got, gotRS, ok)
	}

	// Not yet expired at exactly ttl.
	now = now.Add(time.Second)
	if _, _, ok := m.GetFile("/a"); !ok {
		t.Fatal("entry expired at exactly ttl; want expiry only after ttl")
	}
	// Expired past ttl.
	now = now.Add(time.Nanosecond)
	if _, _, ok := m.GetFile("/a"); ok {
		t.Fatal("entry survived past ttl")
	}

	m.PutFile(fi, rs)
	m.InvalidateFile("/a")
	if _, _, ok := m.GetFile("/a"); ok {
		t.Fatal("entry survived InvalidateFile")
	}
}

func TestMetaServerCaching(t *testing.T) {
	now := time.Unix(1000, 0)
	m := NewMeta(time.Second, nil)
	m.now = func() time.Time { return now }

	infos := []meta.ServerInfo{
		{Name: "a", Addr: "1:1"},
		{Name: "b", Addr: "2:2"},
	}
	m.PutServers(infos)

	if got, ok := m.GetServers(); !ok || len(got) != 2 {
		t.Fatalf("GetServers = %v %v", got, ok)
	}
	// PutServers also seeds the per-name cache.
	if si, ok := m.GetServer("b"); !ok || si.Addr != "2:2" {
		t.Fatalf("GetServer(b) = %+v %v", si, ok)
	}
	now = now.Add(2 * time.Second)
	if _, ok := m.GetServers(); ok {
		t.Fatal("server list survived past ttl")
	}
	if _, ok := m.GetServer("a"); ok {
		t.Fatal("server row survived past ttl")
	}
}

func TestMetaMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMeta(time.Minute, reg)
	m.PutFile(meta.FileInfo{Path: "/x"}, nil)
	m.GetFile("/x") // hit
	m.GetFile("/y") // miss
	m.InvalidateFile("/x")
	m.InvalidateFile("/x") // no-op: already gone
	if got := reg.Counter(MetricMetaHits).Value(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := reg.Counter(MetricMetaMisses).Value(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := reg.Counter(MetricMetaInvalidations).Value(); got != 1 {
		t.Errorf("invalidations = %d, want 1", got)
	}
}

func key(path string, brick int) BrickKey {
	return BrickKey{Path: path, Gen: 1, Brick: brick}
}

func TestDataLRUEvictionByBytes(t *testing.T) {
	reg := obs.NewRegistry()
	d := NewData(100, reg)
	blob := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

	for i := 0; i < 4; i++ { // 4 x 25 = 100 bytes: exactly at budget
		if !d.Put(key("/f", i), blob(byte(i), 25), d.Token()) {
			t.Fatalf("Put brick %d rejected", i)
		}
	}
	if d.Len() != 4 || d.Bytes() != 100 {
		t.Fatalf("Len=%d Bytes=%d, want 4/100", d.Len(), d.Bytes())
	}

	// Touch brick 0 so brick 1 is LRU, then overflow.
	if _, ok := d.Get(key("/f", 0)); !ok {
		t.Fatal("brick 0 missing")
	}
	if !d.Put(key("/f", 4), blob(4, 25), d.Token()) {
		t.Fatal("Put brick 4 rejected")
	}
	if _, ok := d.Get(key("/f", 1)); ok {
		t.Fatal("LRU brick 1 not evicted")
	}
	if _, ok := d.Get(key("/f", 0)); !ok {
		t.Fatal("recently used brick 0 evicted")
	}
	if got := reg.Counter(MetricDataEvictions).Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if d.Bytes() != 100 {
		t.Errorf("Bytes = %d, want 100", d.Bytes())
	}

	// An entry bigger than the whole budget is refused outright.
	if d.Put(key("/f", 9), blob(9, 101), d.Token()) {
		t.Fatal("oversized entry accepted")
	}
	// Replacing an entry in place adjusts accounting.
	if !d.Put(key("/f", 0), blob(7, 50), d.Token()) {
		t.Fatal("replacement rejected")
	}
	if got, _ := d.Get(key("/f", 0)); len(got) != 50 || got[0] != 7 {
		t.Fatalf("replacement not visible: len=%d", len(got))
	}
}

// TestDataSetMetrics: the data cache counts into the registry it was
// last given, every metric of it, and nothing more into the one before.
func TestDataSetMetrics(t *testing.T) {
	first, second := obs.NewRegistry(), obs.NewRegistry()
	d := NewData(50, first)
	d.Get(key("/f", 0)) // miss
	d.SetMetrics(second)
	d.Put(key("/f", 0), make([]byte, 30), d.Token())
	d.Get(key("/f", 0))                              // hit
	d.Get(key("/f", 1))                              // miss
	d.Put(key("/f", 1), make([]byte, 30), d.Token()) // evicts brick 0
	for _, c := range []struct {
		reg  *obs.Registry
		name string
		want int64
	}{
		{first, MetricDataMisses, 1},
		{first, MetricDataHits, 0},
		{second, MetricDataMisses, 1},
		{second, MetricDataHits, 1},
		{second, MetricDataEvictions, 1},
	} {
		if got := c.reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := second.Gauge(MetricDataBytes).Value(); got != 30 {
		t.Errorf("%s = %d, want 30", MetricDataBytes, got)
	}
}

// TestDataPutCopies pins who owns a filled brick: Put keeps the slice
// it is given, copying nothing, so Get returns the very buffer the fill
// landed in; a refused Put keeps nothing.
func TestDataPutCopies(t *testing.T) {
	d := NewData(1024, nil)
	src := []byte{1, 2, 3}
	if !d.Put(key("/f", 0), src, d.Token()) {
		t.Fatal("Put rejected")
	}
	got, ok := d.Get(key("/f", 0))
	if !ok || len(got) != len(src) || &got[0] != &src[0] {
		t.Fatalf("Get returned %v (ok %v), not the slice Put was given", got, ok)
	}
	// A replacement keeps its own slice too.
	again := []byte{4, 5}
	if !d.Put(key("/f", 0), again, d.Token()) {
		t.Fatal("replacement rejected")
	}
	if got, _ := d.Get(key("/f", 0)); &got[0] != &again[0] || d.Bytes() != 2 {
		t.Fatalf("replacement: Get returned %v, %d bytes held; want the new slice, 2", got, d.Bytes())
	}
	tok := d.Token()
	d.Invalidate(key("/f", 1))
	if d.Put(key("/f", 1), []byte{6}, tok) {
		t.Fatal("poisoned fill accepted")
	}
	if _, ok := d.Get(key("/f", 1)); ok || d.Bytes() != 2 {
		t.Fatalf("a refused Put left its slice in the cache (%d bytes held)", d.Bytes())
	}
}

func TestDataInvalidatePoisonsInflightFill(t *testing.T) {
	d := NewData(1024, nil)
	k := key("/f", 3)

	// A fill takes its token, then an overlapping write invalidates
	// while the read RPC is "in flight": the late Put must be dropped.
	tok := d.Token()
	d.Invalidate(k)
	if d.Put(k, []byte("stale"), tok) {
		t.Fatal("poisoned fill accepted")
	}
	if _, ok := d.Get(k); ok {
		t.Fatal("stale data cached")
	}

	// A fill whose token postdates the invalidation is fine.
	tok = d.Token()
	if !d.Put(k, []byte("fresh"), tok) {
		t.Fatal("fresh fill rejected")
	}

	// Invalidation also removes an already-cached entry (the other
	// ordering of the same race).
	d.Invalidate(k)
	if _, ok := d.Get(k); ok {
		t.Fatal("invalidated entry still served")
	}
}

func TestDataInvalidatePathDropsAllGenerations(t *testing.T) {
	d := NewData(1024, nil)
	d.Put(BrickKey{Path: "/f", Gen: 1, Brick: 0}, []byte("a"), d.Token())
	d.Put(BrickKey{Path: "/f", Gen: 2, Brick: 1}, []byte("b"), d.Token())
	d.Put(BrickKey{Path: "/g", Gen: 1, Brick: 0}, []byte("c"), d.Token())

	tok := d.Token() // in-flight fill for an uncached brick of /f
	d.InvalidatePath("/f")

	if _, ok := d.Get(BrickKey{Path: "/f", Gen: 1, Brick: 0}); ok {
		t.Fatal("gen-1 brick survived path invalidation")
	}
	if _, ok := d.Get(BrickKey{Path: "/f", Gen: 2, Brick: 1}); ok {
		t.Fatal("gen-2 brick survived path invalidation")
	}
	if _, ok := d.Get(BrickKey{Path: "/g", Gen: 1, Brick: 0}); !ok {
		t.Fatal("unrelated path dropped")
	}
	// Path invalidation poisons every older fill, even of uncached keys.
	if d.Put(BrickKey{Path: "/f", Gen: 1, Brick: 9}, []byte("z"), tok) {
		t.Fatal("pre-invalidation fill accepted after InvalidatePath")
	}
}

func TestDataPoisonMapBounded(t *testing.T) {
	d := NewData(1<<20, nil)
	tok := d.Token()
	for i := 0; i < poisonMax+10; i++ {
		d.Invalidate(key("/f", i))
	}
	if len(d.poison) > poisonMax {
		t.Fatalf("poison map grew to %d", len(d.poison))
	}
	// After the clear, old tokens are rejected wholesale.
	if d.Put(key("/g", 0), []byte("x"), tok) {
		t.Fatal("pre-clear token accepted")
	}
	if !d.Put(key("/g", 0), []byte("x"), d.Token()) {
		t.Fatal("fresh token rejected")
	}
}

// TestDataRace hammers Get/Put/Invalidate concurrently; run under
// -race this checks the locking, and afterwards we check the byte
// accounting is still exact.
func TestDataRace(t *testing.T) {
	d := NewData(4096, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(fmt.Sprintf("/f%d", g%4), i%32)
				switch i % 3 {
				case 0:
					d.Put(k, bytes.Repeat([]byte{byte(i)}, 64), d.Token())
				case 1:
					d.Get(k)
				default:
					if i%30 == 2 {
						d.InvalidatePath(fmt.Sprintf("/f%d", g%4))
					} else {
						d.Invalidate(k)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	var want int64
	d.mu.Lock()
	for el := d.lru.Front(); el != nil; el = el.Next() {
		want += int64(len(el.Value.(*dataEntry).data))
	}
	got := d.size
	d.mu.Unlock()
	if got != want {
		t.Fatalf("size accounting drifted: size=%d, sum=%d", got, want)
	}
	if got > 4096 {
		t.Fatalf("over budget: %d", got)
	}
}
