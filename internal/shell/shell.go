// Package shell implements the DPFS user interface of Section 7: a set
// of UNIX-like commands (ls, pwd, cd, mkdir, rmdir, rm, stat, df, cp,
// cat) operating on DPFS files and directories, including data
// transfer between sequential (local) files and DPFS. The interactive
// binary cmd/dpfs-sh wraps this package; keeping the command engine
// here makes it testable.
package shell

import (
	"context"
	"fmt"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"

	"dpfs"
	"dpfs/internal/cache"
	"dpfs/internal/core"
	"dpfs/internal/meta"
	"dpfs/internal/obs"
	"dpfs/internal/repair"
	"dpfs/internal/stripe"
)

// Shell is one interactive session: a DPFS client plus a current
// working directory.
type Shell struct {
	client   *dpfs.Client
	cwd      string
	replicas int
}

// New builds a shell rooted at /.
func New(client *dpfs.Client) *Shell {
	return &Shell{client: client, cwd: "/"}
}

// SetReplicas sets the replication factor for files this shell
// creates (cp into DPFS). 0 keeps the engine default of one copy.
func (sh *Shell) SetReplicas(n int) { sh.replicas = n }

// Cwd returns the current working directory.
func (sh *Shell) Cwd() string { return sh.cwd }

// Run executes one command line and returns its output.
func (sh *Shell) Run(ctx context.Context, line string) (string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", nil
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		return helpText, nil
	case "pwd":
		return sh.cwd + "\n", nil
	case "cd":
		return sh.cd(args)
	case "ls":
		return sh.ls(args)
	case "mkdir":
		return sh.mkdir(args)
	case "rmdir":
		return sh.rmdir(args)
	case "rm":
		return sh.rm(ctx, args)
	case "stat":
		return sh.stat(args)
	case "df":
		return sh.df()
	case "cp":
		return sh.cp(ctx, args)
	case "mv":
		return sh.mv(ctx, args)
	case "chmod":
		return sh.chmod(args)
	case "chown":
		return sh.chown(args)
	case "du":
		return sh.du()
	case "cat":
		return sh.cat(ctx, args)
	case "stats":
		return sh.stats()
	case "trace":
		return sh.trace(args)
	case "events":
		return sh.events(args)
	case "repair":
		return sh.repair(ctx)
	case "health":
		return sh.health()
	}
	return "", fmt.Errorf("dpfs-sh: unknown command %q (try help)", cmd)
}

const helpText = `DPFS shell commands:
  pwd                     print the working directory
  cd DIR                  change the working directory
  ls [PATH]               list a directory (d marks directories)
  mkdir DIR               create a directory
  rmdir DIR               remove an empty directory
  rm FILE                 remove a DPFS file (catalog + all subfiles)
  stat FILE               show a file's attributes and distribution
  df                      show registered I/O servers
  cp SRC DST              copy; prefix local files with local:
                          (local:a.bin /b imports, /b local:a.bin exports,
                           /a /b copies within DPFS)
  mv OLD NEW              rename/move a DPFS file
  chmod MODE FILE         set a file's permission (octal)
  chown OWNER FILE        set a file's owner
  du                      per-server file and brick usage
  cat FILE                print a DPFS file's bytes
  stats                   this client's traffic, cache and latency counters
  trace [N|ID]            render recent request traces (stitched across
                          processes; ID is a 16-hex-digit trace id)
  events [TYPE] [N]       recent cluster events (breaker, failover, repair...)
  repair                  probe servers and re-replicate lost brick copies
  health                  per-server health states from the catalog
  help                    this text
`

// resolve makes an argument absolute against the cwd.
func (sh *Shell) resolve(p string) string {
	if p == "" {
		return sh.cwd
	}
	if !strings.HasPrefix(p, "/") {
		p = path.Join(sh.cwd, p)
	}
	return path.Clean(p)
}

func one(args []string, usage string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("dpfs-sh: usage: %s", usage)
	}
	return args[0], nil
}

func (sh *Shell) cd(args []string) (string, error) {
	arg, err := one(args, "cd DIR")
	if err != nil {
		return "", err
	}
	p := sh.resolve(arg)
	ok, err := sh.client.IsDir(p)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", fmt.Errorf("dpfs-sh: no such directory %s", p)
	}
	sh.cwd = p
	return "", nil
}

func (sh *Shell) ls(args []string) (string, error) {
	p := sh.cwd
	if len(args) == 1 {
		p = sh.resolve(args[0])
	} else if len(args) > 1 {
		return "", fmt.Errorf("dpfs-sh: usage: ls [PATH]")
	}
	dirs, files, err := sh.client.ReadDir(p)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, d := range dirs {
		fmt.Fprintf(&sb, "d %s/\n", d)
	}
	sort.Strings(files)
	for _, f := range files {
		fi, err := sh.client.Stat(path.Join(p, f))
		if err != nil {
			fmt.Fprintf(&sb, "- %s (?)\n", f)
			continue
		}
		fmt.Fprintf(&sb, "- %s  %d bytes  %s  %d servers\n", f, fi.Size, fi.Geometry.Level, len(fi.Servers))
	}
	return sb.String(), nil
}

func (sh *Shell) mkdir(args []string) (string, error) {
	arg, err := one(args, "mkdir DIR")
	if err != nil {
		return "", err
	}
	return "", sh.client.Mkdir(sh.resolve(arg))
}

func (sh *Shell) rmdir(args []string) (string, error) {
	arg, err := one(args, "rmdir DIR")
	if err != nil {
		return "", err
	}
	return "", sh.client.Rmdir(sh.resolve(arg))
}

func (sh *Shell) rm(ctx context.Context, args []string) (string, error) {
	arg, err := one(args, "rm FILE")
	if err != nil {
		return "", err
	}
	return "", sh.client.Remove(ctx, sh.resolve(arg))
}

func (sh *Shell) stat(args []string) (string, error) {
	arg, err := one(args, "stat FILE")
	if err != nil {
		return "", err
	}
	p := sh.resolve(arg)
	fi, err := sh.client.Stat(p)
	if err != nil {
		return "", err
	}
	g := fi.Geometry
	var sb strings.Builder
	fmt.Fprintf(&sb, "file:      %s\n", fi.Path)
	fmt.Fprintf(&sb, "owner:     %s\n", fi.Owner)
	fmt.Fprintf(&sb, "perm:      %o\n", fi.Perm)
	fmt.Fprintf(&sb, "size:      %d bytes\n", fi.Size)
	fmt.Fprintf(&sb, "level:     %s\n", g.Level)
	fmt.Fprintf(&sb, "dims:      %v (elem %d bytes)\n", g.Dims, g.ElemSize)
	switch g.Level {
	case stripe.LevelLinear:
		fmt.Fprintf(&sb, "brick:     %d bytes\n", g.BrickBytes)
	case stripe.LevelMultidim:
		fmt.Fprintf(&sb, "tile:      %v\n", g.Tile)
	case stripe.LevelArray:
		pat := make([]string, len(g.Pattern))
		for i, d := range g.Pattern {
			pat[i] = d.String()
		}
		fmt.Fprintf(&sb, "pattern:   (%s) grid %v\n", strings.Join(pat, ","), g.Grid)
	}
	fmt.Fprintf(&sb, "bricks:    %d\n", g.NumBricks())
	fmt.Fprintf(&sb, "placement: %s\n", fi.Placement)
	fmt.Fprintf(&sb, "replicas:  %d\n", fi.Replicas)
	return sb.String(), nil
}

func (sh *Shell) df() (string, error) {
	servers, err := sh.client.Servers()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %-22s %10s %5s\n", "SERVER", "ADDR", "CAPACITY", "PERF")
	for _, s := range servers {
		fmt.Fprintf(&sb, "%-24s %-22s %10d %5d\n", s.Name, s.Addr, s.Capacity, s.Performance)
	}
	return sb.String(), nil
}

const localPrefix = "local:"

func (sh *Shell) cp(ctx context.Context, args []string) (string, error) {
	if len(args) != 2 {
		return "", fmt.Errorf("dpfs-sh: usage: cp SRC DST (prefix local files with %q)", localPrefix)
	}
	src, dst := args[0], args[1]
	srcLocal := strings.HasPrefix(src, localPrefix)
	dstLocal := strings.HasPrefix(dst, localPrefix)
	switch {
	case srcLocal && dstLocal:
		return "", fmt.Errorf("dpfs-sh: at least one side of cp must be a DPFS path")
	case srcLocal:
		return sh.importFile(ctx, strings.TrimPrefix(src, localPrefix), sh.resolve(dst))
	case dstLocal:
		return sh.exportFile(ctx, sh.resolve(src), strings.TrimPrefix(dst, localPrefix))
	default:
		return sh.copyWithin(ctx, sh.resolve(src), sh.resolve(dst))
	}
}

func (sh *Shell) importFile(ctx context.Context, local, dpfsPath string) (string, error) {
	f, err := os.Open(local)
	if err != nil {
		return "", err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return "", err
	}
	if err := sh.client.Import(ctx, f, dpfsPath, st.Size(), core.Hint{Replicas: sh.replicas}); err != nil {
		return "", err
	}
	return fmt.Sprintf("imported %d bytes to %s\n", st.Size(), dpfsPath), nil
}

func (sh *Shell) exportFile(ctx context.Context, dpfsPath, local string) (string, error) {
	f, err := os.Create(local)
	if err != nil {
		return "", err
	}
	if err := sh.client.Export(ctx, f, dpfsPath); err != nil {
		f.Close()
		os.Remove(local)
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	fi, err := sh.client.Stat(dpfsPath)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("exported %d bytes to %s\n", fi.Size, local), nil
}

// copyWithin copies a DPFS file to a new DPFS file with the same
// geometry (level, brick shape, HPF pattern), moving data in row-block
// sections.
func (sh *Shell) copyWithin(ctx context.Context, src, dst string) (string, error) {
	fi, err := sh.client.Stat(src)
	if err != nil {
		return "", err
	}
	g := fi.Geometry
	srcF, err := sh.client.Open(src)
	if err != nil {
		return "", err
	}
	defer srcF.Close()
	rep := sh.replicas
	if rep == 0 {
		rep = fi.Replicas // copies keep the source's replication
	}
	dstF, err := sh.client.Create(dst, g.ElemSize, g.Dims, core.Hint{
		Level:      g.Level,
		BrickBytes: g.BrickBytes,
		Tile:       g.Tile,
		Pattern:    g.Pattern,
		Grid:       g.Grid,
		Replicas:   rep,
	})
	if err != nil {
		return "", err
	}
	defer dstF.Close()

	// Both files are the same array, so 1 MiB ranges of its row-major
	// byte stream copy it on any level.
	size := g.Size()
	buf := make([]byte, min(size, 1<<20))
	for off := int64(0); off < size; off += int64(len(buf)) {
		chunk := buf[:min(int64(len(buf)), size-off)]
		if err := srcF.ReadAt(ctx, chunk, off); err != nil {
			return "", err
		}
		if err := dstF.WriteAt(ctx, chunk, off); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("copied %d bytes to %s\n", fi.Size, dst), nil
}

func (sh *Shell) mv(ctx context.Context, args []string) (string, error) {
	if len(args) != 2 {
		return "", fmt.Errorf("dpfs-sh: usage: mv OLD NEW")
	}
	oldP, newP := sh.resolve(args[0]), sh.resolve(args[1])
	if err := sh.client.Rename(ctx, oldP, newP); err != nil {
		return "", err
	}
	return fmt.Sprintf("renamed %s -> %s\n", oldP, newP), nil
}

func (sh *Shell) chmod(args []string) (string, error) {
	if len(args) != 2 {
		return "", fmt.Errorf("dpfs-sh: usage: chmod MODE FILE")
	}
	mode, err := strconv.ParseInt(args[0], 8, 32)
	if err != nil {
		return "", fmt.Errorf("dpfs-sh: bad octal mode %q", args[0])
	}
	return "", sh.client.Chmod(sh.resolve(args[1]), int(mode))
}

func (sh *Shell) chown(args []string) (string, error) {
	if len(args) != 2 {
		return "", fmt.Errorf("dpfs-sh: usage: chown OWNER FILE")
	}
	return "", sh.client.Chown(sh.resolve(args[1]), args[0])
}

func (sh *Shell) du() (string, error) {
	usage, err := sh.client.Usage()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %8s %8s %10s %5s\n", "SERVER", "FILES", "BRICKS", "CAPACITY", "PERF")
	for _, u := range usage {
		fmt.Fprintf(&sb, "%-24s %8d %8d %10d %5d\n", u.Name, u.Files, u.Bricks, u.Capacity, u.Performance)
	}
	return sb.String(), nil
}

func (sh *Shell) cat(ctx context.Context, args []string) (string, error) {
	arg, err := one(args, "cat FILE")
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := sh.client.Export(ctx, &sb, sh.resolve(arg)); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// stats reports this client's own traffic counters and request
// latency distribution (Section 4.2's combined requests in action:
// moved vs. useful bytes shows the combination overhead).
func (sh *Shell) stats() (string, error) {
	st := sh.client.Stats()
	var sb strings.Builder
	fmt.Fprintf(&sb, "requests:     %d\n", st.Requests)
	fmt.Fprintf(&sb, "moved:        %d bytes\n", st.BytesTransferred)
	fmt.Fprintf(&sb, "useful:       %d bytes\n", st.BytesUseful)
	snap := sh.client.Engine().Metrics().Snapshot()
	if h, ok := snap.Histograms[core.MetricRequestLatency]; ok && h.Count > 0 {
		fmt.Fprintf(&sb, "latency:      p50 %dus  p95 %dus  p99 %dus  (n=%d)\n",
			h.P50, h.P95, h.P99, h.Count)
	} else {
		fmt.Fprintf(&sb, "latency:      no samples\n")
	}
	if snap.Counters[cache.MetricDataHits]+snap.Counters[cache.MetricDataMisses]+
		snap.Counters[cache.MetricMetaHits]+snap.Counters[cache.MetricMetaMisses] > 0 {
		fmt.Fprintf(&sb, "cache data:   %d hits  %d misses  %d prefetched  %d bytes held\n",
			snap.Counters[cache.MetricDataHits], snap.Counters[cache.MetricDataMisses],
			snap.Counters[cache.MetricPrefetch], snap.Gauges[cache.MetricDataBytes])
		fmt.Fprintf(&sb, "cache meta:   %d hits  %d misses\n",
			snap.Counters[cache.MetricMetaHits], snap.Counters[cache.MetricMetaMisses])
	}
	fmt.Fprintf(&sb, "replication:  %d failovers  %d degraded writes  %d failure reports\n",
		snap.Counters[core.MetricFailovers], snap.Counters[core.MetricDegradedWrites],
		snap.Counters[core.MetricFailureReports])
	if snap.Counters[repair.MetricFilesRepaired]+snap.Counters[repair.MetricFilesFailed] > 0 {
		fmt.Fprintf(&sb, "repair:       %d files repaired  %d brick copies  %d files failed\n",
			snap.Counters[repair.MetricFilesRepaired], snap.Counters[repair.MetricBricksCopied],
			snap.Counters[repair.MetricFilesFailed])
	}
	return sb.String(), nil
}

// trace renders recent request traces from the engine's trace log.
// Server-side spans arrive stitched into the client's trees via the
// response trace trailers, so the rendering shows the whole
// cross-process request: client root, per-server RPCs, and the
// servers' own handler and subfile spans.
func (sh *Shell) trace(args []string) (string, error) {
	log := sh.client.Engine().TraceLog()
	if log == nil {
		return "", fmt.Errorf("dpfs-sh: tracing not enabled (run with -trace)")
	}
	if len(args) > 1 {
		return "", fmt.Errorf("dpfs-sh: usage: trace [N|ID]")
	}
	if len(args) == 1 {
		// A 16-hex-digit argument addresses one trace by id.
		if id, err := strconv.ParseUint(args[0], 16, 64); err == nil && len(args[0]) == 16 {
			t := log.ByTraceID(id)
			if t == nil {
				return "", fmt.Errorf("dpfs-sh: no trace %s in the log", args[0])
			}
			return t.String(), nil
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 1 {
			return "", fmt.Errorf("dpfs-sh: usage: trace [N|ID]")
		}
		return renderTraces(log.Traces(), n), nil
	}
	t := log.Last()
	if t == nil {
		return "(no traces recorded)\n", nil
	}
	return t.String(), nil
}

// renderTraces prints the newest n traces, oldest of them first.
func renderTraces(ts []*obs.Trace, n int) string {
	if len(ts) == 0 {
		return "(no traces recorded)\n"
	}
	if n > len(ts) {
		n = len(ts)
	}
	var sb strings.Builder
	for _, t := range ts[len(ts)-n:] {
		sb.WriteString(t.String())
	}
	return sb.String()
}

// events prints recent cluster events (breaker transitions, retry
// exhaustion, failovers, degraded writes, repair lifecycle, slow
// requests), newest last.
func (sh *Shell) events(args []string) (string, error) {
	log := sh.client.Engine().Events()
	evs := log.Events()
	n := 20
	switch len(args) {
	case 0:
	case 1:
		if v, err := strconv.Atoi(args[0]); err == nil && v > 0 {
			n = v
		} else {
			evs = log.ByType(args[0])
		}
	case 2:
		evs = log.ByType(args[0])
		v, err := strconv.Atoi(args[1])
		if err != nil || v < 1 {
			return "", fmt.Errorf("dpfs-sh: usage: events [TYPE] [N]")
		}
		n = v
	default:
		return "", fmt.Errorf("dpfs-sh: usage: events [TYPE] [N]")
	}
	if len(evs) == 0 {
		return "(no events recorded)\n", nil
	}
	if n < len(evs) {
		evs = evs[len(evs)-n:]
	}
	var sb strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&sb, "%6d %s %-18s %-10s", e.Seq, e.Time.Format("15:04:05.000"), e.Type, e.Component)
		keys := make([]string, 0, len(e.Fields))
		for k := range e.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if k == "trace" {
				continue // full trace renderings are for slow-request logs
			}
			fmt.Fprintf(&sb, " %s=%s", k, e.Fields[k])
		}
		if e.TraceID != 0 {
			fmt.Fprintf(&sb, " trace=%016x", e.TraceID)
		}
		sb.WriteByte('\n')
	}
	if d := log.Dropped(); d > 0 {
		fmt.Fprintf(&sb, "(%d older events dropped)\n", d)
	}
	return sb.String(), nil
}

// repair runs one online-repair pass: probe every server, record
// health, and re-replicate bricks that lost copies to dead servers.
func (sh *Shell) repair(ctx context.Context) (string, error) {
	rep, err := sh.client.Repair(ctx)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	names := make([]string, 0, len(rep.Alive))
	for n := range rep.Alive {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		state := "alive"
		if !rep.Alive[n] {
			state = "DOWN"
		}
		fmt.Fprintf(&sb, "server %-24s %s\n", n, state)
	}
	fmt.Fprintf(&sb, "files: %d checked  %d intact  %d repaired  %d failed\n",
		rep.Checked, rep.Intact, rep.Repaired, rep.Failed)
	for _, f := range rep.Files {
		if f.Err != "" {
			fmt.Fprintf(&sb, "  %s: FAILED: %s\n", f.Path, f.Err)
			continue
		}
		fmt.Fprintf(&sb, "  %s: %d lost copies, %d re-replicated (gen %d)\n",
			f.Path, f.LostReplicas, f.CopiedBricks, f.NewGen)
	}
	return sb.String(), nil
}

// health prints the catalog's per-server health table.
func (sh *Shell) health() (string, error) {
	rows, err := sh.client.ServerHealth()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %-8s %5s\n", "SERVER", "STATE", "FAILS")
	for _, h := range rows {
		fmt.Fprintf(&sb, "%-24s %-8s %5d\n", h.Name, h.State, h.Fails)
	}
	if len(rows) == 0 {
		sb.WriteString("(no health records; run repair or report a failure first)\n")
	}
	return sb.String(), nil
}

// EnsureDirs makes every directory on path (mkdir -p), ignoring
// already-existing components.
func EnsureDirs(client *dpfs.Client, p string) error {
	clean, err := meta.CleanPath(p)
	if err != nil {
		return err
	}
	if clean == "/" {
		return nil
	}
	parts := strings.Split(strings.TrimPrefix(clean, "/"), "/")
	cur := ""
	for _, part := range parts {
		cur += "/" + part
		ok, err := client.IsDir(cur)
		if err != nil {
			return err
		}
		if ok {
			continue
		}
		if err := client.Mkdir(cur); err != nil {
			return err
		}
	}
	return nil
}
