package shell

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpfs"
	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/stripe"
)

func newShell(t *testing.T) (*Shell, *dpfs.Client) {
	t.Helper()
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(3), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	fs, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	client := dpfs.Wrap(fs)
	t.Cleanup(func() { client.Close() })
	return New(client), client
}

func run(t *testing.T, sh *Shell, line string) string {
	t.Helper()
	out, err := sh.Run(context.Background(), line)
	if err != nil {
		t.Fatalf("Run(%q): %v", line, err)
	}
	return out
}

func runErr(t *testing.T, sh *Shell, line string) error {
	t.Helper()
	_, err := sh.Run(context.Background(), line)
	if err == nil {
		t.Fatalf("Run(%q) should fail", line)
	}
	return err
}

func TestPwdCdMkdirLs(t *testing.T) {
	sh, _ := newShell(t)
	if out := run(t, sh, "pwd"); out != "/\n" {
		t.Fatalf("pwd = %q", out)
	}
	run(t, sh, "mkdir /home")
	run(t, sh, "cd /home")
	if sh.Cwd() != "/home" {
		t.Fatalf("cwd = %q", sh.Cwd())
	}
	run(t, sh, "mkdir xhshen") // relative
	run(t, sh, "cd xhshen")
	if out := run(t, sh, "pwd"); out != "/home/xhshen\n" {
		t.Fatalf("pwd = %q", out)
	}
	run(t, sh, "cd ..")
	out := run(t, sh, "ls")
	if !strings.Contains(out, "d xhshen/") {
		t.Fatalf("ls = %q", out)
	}
	runErr(t, sh, "cd /nosuch")
	runErr(t, sh, "ls /nosuch")
	runErr(t, sh, "bogus")
	if out := run(t, sh, ""); out != "" {
		t.Fatalf("empty line output %q", out)
	}
	if out := run(t, sh, "help"); !strings.Contains(out, "mkdir") {
		t.Fatalf("help = %q", out)
	}
}

func TestCpImportExportCat(t *testing.T) {
	sh, _ := newShell(t)
	dir := t.TempDir()
	local := filepath.Join(dir, "seq.bin")
	payload := bytes.Repeat([]byte("dpfs!"), 10000)
	if err := os.WriteFile(local, payload, 0o644); err != nil {
		t.Fatal(err)
	}

	out := run(t, sh, "cp local:"+local+" /data")
	if !strings.Contains(out, "imported 50000 bytes") {
		t.Fatalf("import out = %q", out)
	}
	// stat shows the file.
	out = run(t, sh, "stat /data")
	if !strings.Contains(out, "size:      50000 bytes") || !strings.Contains(out, "level:     linear") {
		t.Fatalf("stat = %q", out)
	}
	// cat returns the bytes.
	if out := run(t, sh, "cat /data"); out != string(payload) {
		t.Fatal("cat mismatch")
	}
	// DPFS-to-DPFS copy.
	out = run(t, sh, "cp /data /data2")
	if !strings.Contains(out, "copied 50000 bytes") {
		t.Fatalf("copy out = %q", out)
	}
	if out := run(t, sh, "cat /data2"); out != string(payload) {
		t.Fatal("copied file mismatch")
	}
	// Export back out.
	exported := filepath.Join(dir, "out.bin")
	run(t, sh, "cp /data2 local:"+exported)
	got, err := os.ReadFile(exported)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("export mismatch")
	}
	// ls shows both files.
	out = run(t, sh, "ls /")
	if !strings.Contains(out, "- data ") || !strings.Contains(out, "- data2 ") {
		t.Fatalf("ls = %q", out)
	}
	// rm removes.
	run(t, sh, "rm /data")
	runErr(t, sh, "stat /data")
	runErr(t, sh, "cp local:"+local+" local:"+exported)
	runErr(t, sh, "cp /only-one")
	runErr(t, sh, "cp local:/nosuchfile /x")
	runErr(t, sh, "cat /nosuch")
}

// TestLsShowsServers: ls prints each file's real server count, with
// the shell's metadata cache off.
func TestLsShowsServers(t *testing.T) {
	sh, client := newShell(t)
	f, err := client.Create("/wide", 1, []int64{4096}, core.Hint{BrickBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if out := run(t, sh, "ls /"); !strings.Contains(out, "- wide  4096 bytes  linear  3 servers") {
		t.Fatalf("ls = %q", out)
	}
}

func TestDf(t *testing.T) {
	sh, _ := newShell(t)
	out := run(t, sh, "df")
	for _, name := range []string{"io0", "io1", "io2", "PERF"} {
		if !strings.Contains(out, name) {
			t.Fatalf("df output missing %s: %q", name, out)
		}
	}
}

func TestRmdir(t *testing.T) {
	sh, _ := newShell(t)
	run(t, sh, "mkdir /d")
	run(t, sh, "rmdir /d")
	runErr(t, sh, "rmdir /d")
	runErr(t, sh, "mkdir")
	runErr(t, sh, "rmdir")
	runErr(t, sh, "rm")
	runErr(t, sh, "stat")
	runErr(t, sh, "cd")
	runErr(t, sh, "cat")
	runErr(t, sh, "ls /a /b")
}

func TestStatShowsLevels(t *testing.T) {
	sh, client := newShell(t)
	ctx := context.Background()
	_ = ctx
	f, err := client.Create("/md", 8, []int64{32, 32}, core.Hint{Level: stripe.LevelMultidim, Tile: []int64{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	out := run(t, sh, "stat /md")
	if !strings.Contains(out, "tile:      [8 8]") || !strings.Contains(out, "bricks:    16") {
		t.Fatalf("stat multidim = %q", out)
	}
	f, err = client.Create("/arr", 8, []int64{32, 32}, core.Hint{Level: stripe.LevelArray,
		Pattern: []stripe.Dist{stripe.DistStar, stripe.DistBlock}, Grid: []int64{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	out = run(t, sh, "stat /arr")
	if !strings.Contains(out, "pattern:   (*,BLOCK)") {
		t.Fatalf("stat array = %q", out)
	}
}

func TestEnsureDirs(t *testing.T) {
	_, client := newShell(t)
	if err := EnsureDirs(client, "/a/b/c"); err != nil {
		t.Fatal(err)
	}
	ok, err := client.IsDir("/a/b/c")
	if err != nil || !ok {
		t.Fatalf("IsDir = %v %v", ok, err)
	}
	// Idempotent.
	if err := EnsureDirs(client, "/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if err := EnsureDirs(client, "/"); err != nil {
		t.Fatal(err)
	}
	if err := EnsureDirs(client, "bad"); err == nil {
		t.Fatal("relative path accepted")
	}
}

func TestMvAndDu(t *testing.T) {
	sh, client := newShell(t)
	ctx := context.Background()

	f, err := client.Create("/a.dat", 1, []int64{4096}, core.Hint{BrickBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(ctx, bytes.Repeat([]byte{7}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out := run(t, sh, "mv /a.dat /b.dat")
	if !strings.Contains(out, "renamed /a.dat -> /b.dat") {
		t.Fatalf("mv out = %q", out)
	}
	runErr(t, sh, "stat /a.dat")
	run(t, sh, "stat /b.dat")
	if got := run(t, sh, "cat /b.dat"); got != string(bytes.Repeat([]byte{7}, 4096)) {
		t.Fatal("moved file content mismatch")
	}

	out = run(t, sh, "du")
	if !strings.Contains(out, "BRICKS") || !strings.Contains(out, "io0") {
		t.Fatalf("du out = %q", out)
	}
	// 8 bricks over 3 servers: io0 holds 3.
	if !strings.Contains(out, "io0") {
		t.Fatalf("du out = %q", out)
	}
	runErr(t, sh, "mv /b.dat")
	runErr(t, sh, "mv /missing /x")
}

func TestChmodChown(t *testing.T) {
	sh, client := newShell(t)
	f, err := client.Create("/f", 1, []int64{64}, core.Hint{BrickBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	run(t, sh, "chmod 600 /f")
	run(t, sh, "chown xhshen /f")
	out := run(t, sh, "stat /f")
	if !strings.Contains(out, "perm:      600") || !strings.Contains(out, "owner:     xhshen") {
		t.Fatalf("stat after chmod/chown = %q", out)
	}
	runErr(t, sh, "chmod 9z9 /f")
	runErr(t, sh, "chmod 600 /missing")
	runErr(t, sh, "chown root /missing")
	runErr(t, sh, "chmod 600")
	runErr(t, sh, "chown root")
}

// TestCpPreservesLevel: DPFS-to-DPFS copy keeps the striping level and
// geometry rather than linearizing.
func TestCpPreservesLevel(t *testing.T) {
	sh, client := newShell(t)
	ctx := context.Background()
	f, err := client.Create("/md", 8, []int64{32, 32}, core.Hint{Level: stripe.LevelMultidim, Tile: []int64{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 32*32*8)
	if err := f.WriteSection(ctx, dpfs.FullSection([]int64{32, 32}), data); err != nil {
		t.Fatal(err)
	}
	f.Close()

	run(t, sh, "cp /md /md2")
	out := run(t, sh, "stat /md2")
	if !strings.Contains(out, "level:     multidim") || !strings.Contains(out, "tile:      [8 8]") {
		t.Fatalf("copied stat = %q", out)
	}
	f2, err := client.Open("/md2")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := f2.ReadSection(ctx, dpfs.FullSection([]int64{32, 32}), buf); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	if !bytes.Equal(buf, data) {
		t.Fatal("copied data mismatch")
	}
}

func TestTraceAndEventsCommands(t *testing.T) {
	sh, client := newShell(t)
	// Without tracing enabled the trace command must explain itself.
	if err := runErr(t, sh, "trace"); !strings.Contains(err.Error(), "tracing not enabled") {
		t.Fatalf("trace without -trace: %v", err)
	}
	client.Engine().EnableTracing(8)

	run(t, sh, "mkdir /d")
	if _, err := sh.Run(context.Background(), "cp local:"+writeLocal(t, "hello trace")+" /d/f"); err != nil {
		t.Fatal(err)
	}
	out := run(t, sh, "cat /d/f")
	if !strings.Contains(out, "hello trace") {
		t.Fatalf("cat = %q", out)
	}

	// The cat recorded a client.request trace with server.rpc children
	// stitched to server.request spans from the I/O servers.
	tr := run(t, sh, "trace")
	for _, want := range []string{"client.request", "server.rpc", "server.request"} {
		if !strings.Contains(tr, want) {
			t.Fatalf("trace output missing %q:\n%s", want, tr)
		}
	}
	// Selecting the last trace by its hex id renders the same tree.
	id := traceIDFromOutput(t, tr)
	if byID := run(t, sh, "trace "+id); !strings.Contains(byID, "client.request") {
		t.Fatalf("trace %s = %q", id, byID)
	}

	// No failures happened, so the event log is empty but well-formed.
	if out := run(t, sh, "events"); !strings.Contains(out, "no events recorded") {
		t.Fatalf("events = %q", out)
	}
	client.Engine().Events().Emit("failover", "client", map[string]string{"server": "io9"})
	out = run(t, sh, "events failover 5")
	if !strings.Contains(out, "failover") || !strings.Contains(out, "server=io9") {
		t.Fatalf("events failover = %q", out)
	}
}

// writeLocal drops content into a temp file and returns its path.
func writeLocal(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "local.txt")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// traceIDFromOutput digs the 16-hex trace id out of the rendered
// "trace <id>" header line.
func traceIDFromOutput(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "trace "); ok && len(rest) >= 16 {
			return rest[:16]
		}
	}
	t.Fatalf("no trace id header in output:\n%s", out)
	return ""
}
