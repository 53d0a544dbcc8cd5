package dpfs_test

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestEndToEndProcesses builds the real binaries and runs a complete
// multi-process deployment: one dpfs-meta, two dpfs-server processes,
// and dpfs-sh driving the Section 7 user interface over TCP — the
// closest this repo gets to the paper's actual operational setup. It
// runs once over a plain catalog and once over a 3-way replica group;
// both hand out the -meta list dpfs-meta prints, and both restart the
// catalog on its directory mid-run.
func TestEndToEndProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches subprocesses")
	}
	bin := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, msg)
		}
		return out
	}
	metaBin := build("dpfs-meta")
	srvBin := build("dpfs-server")
	shBin := build("dpfs-sh")
	for _, row := range []struct {
		name     string
		replicas int
	}{{"single", 1}, {"replicated", 3}} {
		t.Run(row.name, func(t *testing.T) { endToEnd(t, metaBin, srvBin, shBin, row.replicas) })
	}
}

func endToEnd(t *testing.T, metaBin, srvBin, shBin string, replicas int) {
	freePort := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return l.Addr().String()
	}

	work := t.TempDir()
	procs := []*exec.Cmd{}
	start := func(path string, args ...string) *exec.Cmd {
		cmd := exec.Command(path, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", path, err)
		}
		procs = append(procs, cmd)
		return cmd
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	})

	// startMeta runs dpfs-meta and returns it with the -meta list it
	// prints for clients and servers.
	metaArgs := []string{"-addr", freePort(), "-dir", filepath.Join(work, "meta"), "-repl-factor", fmt.Sprint(replicas)}
	startMeta := func() (*exec.Cmd, string) {
		cmd := exec.Command(metaBin, metaArgs...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatalf("start dpfs-meta: %v", err)
		}
		procs = append(procs, cmd)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			fmt.Fprintln(os.Stderr, sc.Text())
			if list, ok := strings.CutPrefix(sc.Text(), "dpfs-meta: clients: -meta '"); ok {
				go func() {
					for sc.Scan() {
						fmt.Fprintln(os.Stderr, sc.Text())
					}
				}()
				return cmd, strings.TrimSuffix(list, "'")
			}
		}
		t.Fatal("dpfs-meta exited without printing its -meta list")
		return nil, ""
	}
	meta, metaList := startMeta()
	if n := len(strings.Split(metaList, ",")); n != replicas {
		t.Fatalf("-meta list %q names %d replicas, want %d", metaList, n, replicas)
	}

	srv1 := freePort()
	srv2 := freePort()
	start(srvBin, "-addr", srv1, "-root", filepath.Join(work, "s1"), "-name", "io-a", "-meta", metaList)
	start(srvBin, "-addr", srv2, "-root", filepath.Join(work, "s2"), "-name", "io-b", "-meta", metaList, "-class", "class3")
	waitTCP(t, srv1)
	waitTCP(t, srv2)
	// Registration happens at server startup; give the slower path a
	// moment before the shell asks for the server list.
	waitShell(t, shBin, metaList, "df", "io-b")

	sh := func(cmd string) string {
		out, err := exec.Command(shBin, "-meta", metaList, "-c", cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("dpfs-sh -c %q: %v\n%s", cmd, err, out)
		}
		return string(out)
	}

	// df sees both servers with class-calibrated performance numbers.
	df := sh("df")
	if !strings.Contains(df, "io-a") || !strings.Contains(df, "io-b") {
		t.Fatalf("df = %q", df)
	}

	// Import a local file, stat it, copy it, read it back out.
	payload := bytes.Repeat([]byte("end-to-end!"), 20000)
	local := filepath.Join(work, "in.bin")
	if err := os.WriteFile(local, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	sh("mkdir /data")
	out := sh(fmt.Sprintf("cp local:%s /data/blob", local))
	if !strings.Contains(out, "imported 220000 bytes") {
		t.Fatalf("import: %q", out)
	}
	stat := sh("stat /data/blob")
	if !strings.Contains(stat, "size:      220000 bytes") {
		t.Fatalf("stat: %q", stat)
	}
	if ls := sh("ls /data"); !strings.Contains(ls, "- blob  220000 bytes  linear  2 servers") {
		t.Fatalf("ls: %q", ls)
	}
	sh("mv /data/blob /data/blob2")
	export := func() {
		t.Helper()
		exported := filepath.Join(work, "out.bin")
		sh(fmt.Sprintf("cp /data/blob2 local:%s", exported))
		got, err := os.ReadFile(exported)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("roundtrip through real processes corrupted data")
		}
	}
	export()

	// Subfiles really live under both server roots.
	foundA := subfileExists(t, filepath.Join(work, "s1"))
	foundB := subfileExists(t, filepath.Join(work, "s2"))
	if !foundA || !foundB {
		t.Fatalf("subfiles on servers: a=%v b=%v (file should stripe across both)", foundA, foundB)
	}

	// A catalog restarted on its directory serves the list it printed
	// first, so every server and client keeps working with it.
	if err := meta.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := meta.Wait(); err != nil {
		t.Fatalf("dpfs-meta after SIGTERM: %v", err)
	}
	if _, again := startMeta(); again != metaList {
		t.Fatalf("restarted dpfs-meta printed -meta %q, first start %q", again, metaList)
	}
	export()

	// du accounts the bricks.
	du := sh("du")
	if !strings.Contains(du, "io-a") {
		t.Fatalf("du: %q", du)
	}
	sh("rm /data/blob2")
	if out := sh("ls /data"); strings.Contains(out, "blob2") {
		t.Fatalf("ls after rm: %q", out)
	}
}

// waitTCP blocks until the address accepts connections.
func waitTCP(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := (&net.Dialer{Timeout: time.Second}).Dial("tcp", addr)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server at %s never came up", addr)
}

// waitShell retries a shell command until its output contains want.
func waitShell(t *testing.T, shBin, metaAddr, cmd, want string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var last []byte
	for time.Now().Before(deadline) {
		out, err := exec.Command(shBin, "-meta", metaAddr, "-c", cmd).CombinedOutput()
		last = out
		if err == nil && strings.Contains(string(out), want) {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("shell %q never showed %q; last output: %s", cmd, want, last)
}

// subfileExists reports whether any regular file exists under dir.
func subfileExists(t *testing.T, dir string) bool {
	t.Helper()
	found := false
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() && info.Size() > 0 {
			found = true
		}
		return nil
	})
	return found
}
