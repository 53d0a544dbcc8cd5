package cluster

import (
	"context"
	"testing"
	"time"

	"dpfs/internal/core"
	"dpfs/internal/netsim"
	"dpfs/internal/stripe"
)

func TestStartAndUse(t *testing.T) {
	c, err := Start(Config{Servers: Uniform(3), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if len(c.IOServers) != 3 || len(c.ServerNames()) != 3 {
		t.Fatalf("servers = %v", c.ServerNames())
	}
	if c.ServerNames()[0] != "io0" {
		t.Fatalf("names = %v", c.ServerNames())
	}

	fs, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	f, err := fs.Create("/x", 1, []int64{4096}, core.Hint{BrickBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(ctx, make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestConfigValidation(t *testing.T) {
	if _, err := Start(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("no servers accepted")
	}
	if _, err := Start(Config{Servers: Uniform(1)}); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestMixedPerfNormalization(t *testing.T) {
	c, err := Start(Config{Servers: Mixed(4), Dir: t.TempDir(), RefBrickBytes: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cat, err := c.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	servers, err := cat.Servers()
	if err != nil {
		t.Fatal(err)
	}
	perfs := map[string]int{}
	for _, s := range servers {
		perfs[s.Name] = s.Performance
	}
	// Mixed(4): io0, io1 class1 (perf 1); io2, io3 class3 (perf 3).
	if perfs["io0"] != 1 || perfs["io1"] != 1 || perfs["io2"] != 3 || perfs["io3"] != 3 {
		t.Fatalf("normalized perfs = %v", perfs)
	}
}

func TestSpecHelpers(t *testing.T) {
	if n := len(Uniform(5)); n != 5 {
		t.Fatalf("Uniform = %d", n)
	}
	uc := UniformClass(3, netsim.Class2())
	for _, s := range uc {
		if s.Class.Name != "class2" {
			t.Fatalf("UniformClass = %+v", s)
		}
	}
	m := Mixed(6)
	if m[0].Class.Name != "class1" || m[5].Class.Name != "class3" {
		t.Fatalf("Mixed = %+v", m)
	}
}

func TestDurableMeta(t *testing.T) {
	dir := t.TempDir()
	c, err := Start(Config{Servers: Uniform(1), Dir: dir, DurableMeta: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := c.NewFS(0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/persisted", 1, []int64{64}, core.Hint{BrickBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	fs.Close()
	c.Close()

	// A fresh cluster over the same directory recovers the catalog;
	// the I/O server re-registers under the same name and root, so the
	// file opens and its geometry survives.
	c2, err := Start(Config{Servers: Uniform(1), Dir: dir, DurableMeta: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	fs2, err := c2.NewFS(0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	f2, err := fs2.Open("/persisted")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Geometry().Level != stripe.LevelLinear || f2.Geometry().BrickBytes != 16 {
		t.Fatalf("recovered geometry = %+v", f2.Geometry())
	}
	f2.Close()
}

func TestCloseIdempotent(t *testing.T) {
	c, err := Start(Config{Servers: Uniform(1), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestRestartMeta: an unreplicated catalog comes back on its address
// after StopMeta, while a replica group refuses RestartMeta, which
// would re-listen replica 0's database without its replication gate
// and let it take SQL as a non-primary.
func TestRestartMeta(t *testing.T) {
	c, err := Start(Config{Servers: Uniform(1), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr := c.MetaSrv.Addr()
	if err := c.StopMeta(); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartMeta(); err != nil {
		t.Fatal(err)
	}
	if got := c.MetaSrv.Addr(); got != addr {
		t.Fatalf("restarted on %s, want %s", got, addr)
	}
	cat, err := c.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if names, err := cat.Servers(); err != nil || len(names) != 1 {
		t.Fatalf("Servers after restart = %v, %v", names, err)
	}

	g, err := Start(Config{Servers: Uniform(1), Dir: t.TempDir(), MetaReplicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.RestartMeta(); err == nil {
		t.Fatal("RestartMeta on a replica group succeeded")
	}
}
