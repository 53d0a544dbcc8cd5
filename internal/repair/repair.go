// Package repair implements DPFS's online re-replication: it probes
// the registered I/O servers, records their health in the catalog's
// dpfs_server_health table, and rebuilds the replica sets of files
// whose bricks lost copies to dead servers.
//
// A repair run works per file, entirely through the existing
// generation scheme:
//
//  1. Every live server holding bricks of the file copies its slots to
//     a fresh generation (a local-bump OpCopy), arming the servers'
//     stale-generation check against the old distribution.
//  2. Lost brick replicas are re-created by pull OpCopy requests: each
//     chosen target server fetches the brick from a surviving replica
//     at the new generation and stores it at the end of its own slot
//     list.
//  3. The catalog's distribution rows are rewritten in one transaction
//     with the new replica lists and the new generation.
//  4. Best-effort cleanup OpCopy requests clear the superseded on-disk
//     generations.
//
// Old generations are deleted only after step 3: a crash anywhere
// before the catalog commit leaves the previous generation fully
// intact, so a re-run starts over with nothing lost. A copy on a dead
// server can never be resurrected — the new generation's subfile never
// existed there, so requests at the committed generation find no stale
// bytes even if the server returns.
//
// Repair is an administrative operation: it assumes no concurrent
// writers to the files it touches (readers fail over and re-open).
package repair

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dpfs/internal/gossip"
	"dpfs/internal/meta"
	"dpfs/internal/obs"
	"dpfs/internal/server"
	"dpfs/internal/stripe"
	"dpfs/internal/wire"
)

// Metric names recorded in Options.Metrics (when set).
const (
	// MetricFilesRepaired counts files whose replica sets were rebuilt.
	MetricFilesRepaired = "repair_files_repaired_total"
	// MetricBricksCopied counts brick replicas re-created on new
	// servers.
	MetricBricksCopied = "repair_bricks_copied_total"
	// MetricFilesFailed counts files a run could not repair.
	MetricFilesFailed = "repair_files_failed_total"
	// MetricDeadHolds counts dead escalations withheld because the
	// gossip plane had not independently confirmed the failure (the
	// two-witness rule of DESIGN.md §14).
	MetricDeadHolds = "repair_dead_holds_total"
)

// GossipView is the slice of a *gossip.Node the repair plane consumes:
// the second witness consulted before a server may be declared dead.
type GossipView interface {
	// Lookup returns the health record for one server address.
	Lookup(addr string) (gossip.Record, bool)
	// Inject merges a locally-derived record (the prober feeding a
	// two-witness-confirmed death back into the mesh).
	Inject(rec gossip.Record)
}

// Options tune a repair run.
type Options struct {
	// Dial overrides how servers are reached (fault injection, tests).
	Dial server.DialFunc
	// Retry tunes the copy traffic's per-RPC policy.
	Retry server.RetryPolicy
	// PingTimeout bounds each liveness probe (default 2s).
	PingTimeout time.Duration
	// CopyChunkBytes caps the payload of one OpCopy request; larger
	// brick sets split into several requests (default 32 MiB).
	CopyChunkBytes int64
	// Metrics, when non-nil, receives the repair counters.
	Metrics *obs.Registry
	// Events receives health escalations and the repair lifecycle
	// (plan, commit, cleanup) as structured cluster events. Nil uses
	// the process-default log.
	Events *obs.EventLog
	// Gossip, when non-nil, arms the two-witness rule: a failed central
	// probe escalates a server to dead only if the gossip plane also
	// reports it suspect (with at least Witnesses distinct observers)
	// or dead, and receives confirmed deaths back via Inject. Nil
	// restores probe-only escalation.
	Gossip GossipView
	// Witnesses is how many distinct gossip observers must corroborate
	// a suspicion before the prober may escalate a probe-failed server
	// to dead (default 2). Only meaningful with Gossip set.
	Witnesses int
	// ProbeConcurrency caps how many liveness probes run at once in one
	// Probe pass (default 8) — the fan-out bound that keeps a probe of
	// a large cluster from opening every connection simultaneously.
	ProbeConcurrency int
	// Seed makes RunProber's interval jitter deterministic (tests,
	// chaos sweeps). The zero value is a valid seed.
	Seed int64
}

// FileRepair is one file's outcome in a repair run.
type FileRepair struct {
	Path string
	// LostReplicas is how many brick copies were on dead servers.
	LostReplicas int
	// CopiedBricks is how many replica copies were re-created.
	CopiedBricks int
	// NewGen is the generation the repaired distribution was committed
	// under (0 when nothing was changed).
	NewGen int64
	// Err is non-empty when the file could not be repaired.
	Err string
}

// Report summarizes a repair run.
type Report struct {
	// Alive maps every registered server to its probe result.
	Alive map[string]bool
	// Checked counts catalog files examined.
	Checked int
	// Intact counts files with every replica on a live server.
	Intact int
	// Repaired counts files whose distribution was rewritten.
	Repaired int
	// Failed counts files that could not be repaired.
	Failed int
	// Files holds per-file detail for every non-intact file.
	Files []FileRepair
}

// Runner executes repair runs against the catalog.
type Runner struct {
	cat     meta.Router
	opts    Options
	clients map[string]*server.Client // addr -> copy-traffic client
}

// New builds a Runner. Close it to drop pooled server connections.
func New(cat meta.Router, opts Options) *Runner {
	if opts.PingTimeout <= 0 {
		opts.PingTimeout = 2 * time.Second
	}
	if opts.CopyChunkBytes <= 0 {
		opts.CopyChunkBytes = 32 << 20
	}
	if opts.Events == nil {
		opts.Events = obs.Events()
	}
	return &Runner{cat: cat, opts: opts, clients: make(map[string]*server.Client)}
}

// Close drops the runner's server connections.
func (r *Runner) Close() {
	for _, c := range r.clients {
		c.Close()
	}
	r.clients = make(map[string]*server.Client)
}

func (r *Runner) client(addr string) *server.Client {
	if c, ok := r.clients[addr]; ok {
		return c
	}
	c := server.NewClientWith(addr, server.ClientConfig{Dial: r.opts.Dial, Retry: r.opts.Retry})
	r.clients[addr] = c
	return c
}

// ping checks one server's liveness with a bounded OpPing over a
// dedicated connection (no retries, no breaker: a probe must see the
// server as it is right now).
func (r *Runner) ping(ctx context.Context, addr string) error {
	ctx, cancel := context.WithTimeout(ctx, r.opts.PingTimeout)
	defer cancel()
	resp, err := wire.Call(ctx, r.opts.Dial, addr, &wire.Request{Op: wire.OpPing})
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return fmt.Errorf("ping: %s", resp.Err)
	}
	return nil
}

// pingAll probes every address concurrently, at most ProbeConcurrency
// at a time, and returns each probe's error in address order. The
// bound keeps a probe pass over a large cluster from opening every
// connection at the same instant.
func (r *Runner) pingAll(ctx context.Context, addrs []string) []error {
	conc := r.opts.ProbeConcurrency
	if conc <= 0 {
		conc = 8
	}
	errs := make([]error, len(addrs))
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i := range addrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = r.ping(ctx, addrs[i])
		}(i)
	}
	wg.Wait()
	return errs
}

// deadConfirmed applies the two-witness rule: a probe-failed server
// already suspect may become dead only when the gossip plane
// independently agrees — its record is dead, or suspect with at least
// Witnesses distinct observers. With no gossip source the central
// probe remains the sole authority (the pre-gossip behaviour).
func (r *Runner) deadConfirmed(addr string) bool {
	g := r.opts.Gossip
	if g == nil {
		return true
	}
	rec, ok := g.Lookup(addr)
	if !ok {
		return false
	}
	switch rec.State {
	case gossip.StateDead:
		return true
	case gossip.StateSuspect:
		k := r.opts.Witnesses
		if k <= 0 {
			k = 2
		}
		return len(rec.Observers) >= k
	}
	return false
}

// Probe pings every registered server once (bounded fan-out) and
// records the outcome in the catalog's health table. A responding
// server becomes alive; a non-responding one escalates one step per
// probe (alive → suspect → dead), so a single missed probe never
// declares death — and with a gossip source configured, the final step
// additionally requires the mesh to corroborate (two-witness rule,
// DESIGN.md §14), so a server only the prober cannot reach is held at
// suspect instead of being falsely buried. Confirmed deaths are
// injected back into the gossip mesh. With the catalog unreachable the
// probe returns the catalog's error: repair's only commit needs the
// catalog anyway.
func (r *Runner) Probe(ctx context.Context) (map[string]bool, error) {
	infos, err := r.cat.Servers()
	if err != nil {
		return nil, err
	}
	states := make(map[string]string)
	if rows, err := r.cat.ServerHealth(); err == nil {
		for _, h := range rows {
			states[h.Name] = h.State
		}
	}
	addrs := make([]string, len(infos))
	for i, si := range infos {
		addrs[i] = si.Addr
	}
	pings := r.pingAll(ctx, addrs)
	alive := make(map[string]bool, len(infos))
	for i, si := range infos {
		if pings[i] == nil {
			alive[si.Name] = true
			_ = r.cat.SetServerState(si.Name, meta.StateAlive)
			continue
		}
		alive[si.Name] = false
		next := meta.StateSuspect
		if states[si.Name] == meta.StateSuspect || states[si.Name] == meta.StateDead {
			if r.deadConfirmed(si.Addr) {
				next = meta.StateDead
			} else if r.opts.Metrics != nil {
				r.opts.Metrics.Counter(MetricDeadHolds).Inc()
			}
		}
		if next != states[si.Name] {
			from := states[si.Name]
			if from == "" {
				from = meta.StateAlive
			}
			r.opts.Events.Emit(obs.EventHealthEscalation, "repair", map[string]string{
				"server": si.Name,
				"from":   from,
				"to":     next,
			})
		}
		_ = r.cat.SetServerState(si.Name, next)
		if next == meta.StateDead && r.opts.Gossip != nil {
			if rec, ok := r.opts.Gossip.Lookup(si.Addr); ok {
				rec.State = gossip.StateDead
				// The mesh may only know this server by address (it
				// learned of it through a failed exchange); the prober
				// has the catalog name, so the verdict carries it.
				if rec.Name == "" || rec.Name == rec.Addr {
					rec.Name = si.Name
				}
				r.opts.Gossip.Inject(rec)
			}
		}
	}
	return alive, nil
}

// RunProber probes all servers every interval until ctx is done — the
// background health feed that turns unreachable servers suspect and
// then dead between repair runs. Each cycle sleeps the interval plus
// up to 25% deterministic jitter (Options.Seed), so several probers
// started together do not fire their probe fan-outs in lockstep.
func (r *Runner) RunProber(ctx context.Context, interval time.Duration) {
	rnd := rand.New(rand.NewSource(r.opts.Seed))
	for {
		d := interval
		if interval >= 4 {
			d += time.Duration(rnd.Int63n(int64(interval) / 4))
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(d):
			_, _ = r.Probe(ctx)
		}
	}
}

// Run probes the servers and repairs every under-replicated file.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	alive, err := r.Probe(ctx)
	if err != nil {
		return nil, err
	}
	infos, err := r.cat.Servers()
	if err != nil {
		return nil, err
	}
	addrs := make(map[string]string, len(infos))
	for _, si := range infos {
		addrs[si.Name] = si.Addr
	}
	files, err := r.cat.Files()
	if err != nil {
		return nil, err
	}
	rep := &Report{Alive: alive}
	for _, path := range files {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		fr := r.repairFile(ctx, path, alive, addrs)
		rep.Checked++
		switch {
		case fr == nil:
			rep.Intact++
		case fr.Err != "":
			rep.Failed++
			rep.Files = append(rep.Files, *fr)
			if r.opts.Metrics != nil {
				r.opts.Metrics.Counter(MetricFilesFailed).Inc()
			}
		default:
			rep.Repaired++
			rep.Files = append(rep.Files, *fr)
			if r.opts.Metrics != nil {
				r.opts.Metrics.Counter(MetricFilesRepaired).Inc()
				r.opts.Metrics.Counter(MetricBricksCopied).Add(int64(fr.CopiedBricks))
			}
		}
	}
	return rep, nil
}

// copyOp is one planned re-replication: target pulls brick from src.
type copyOp struct {
	brick   int
	rank    int
	src     int // server index of the surviving copy
	srcSlot int64
	dst     int // server index of the new copy
	dstSlot int64
}

// repairFile rebuilds one file's replica set. It returns nil when the
// file is intact, or a FileRepair describing what was done (or why it
// failed).
func (r *Runner) repairFile(ctx context.Context, path string, alive map[string]bool, addrs map[string]string) *FileRepair {
	fi, rs, err := r.cat.LookupReplicated(path)
	if err != nil {
		return &FileRepair{Path: path, Err: err.Error()}
	}
	nb := fi.Geometry.NumBricks()
	nsrv := len(fi.Servers)
	live := make([]bool, nsrv)
	for i, name := range fi.Servers {
		live[i] = alive[name]
	}

	// Current per-server slot lists, rebuilt from the replica set so
	// retained bricks keep their slots.
	lists := make([][]stripe.ReplicaEntry, nsrv)
	for s := 0; s < nsrv; s++ {
		n := 0
		for b := 0; b < nb; b++ {
			if rs.SlotOn(b, s) >= 0 {
				n++
			}
		}
		lists[s] = make([]stripe.ReplicaEntry, n)
	}
	lost := 0
	for b := 0; b < nb; b++ {
		for k := 0; k < rs.Replicas(); k++ {
			s := rs.Servers[b][k]
			slot := rs.Local[b][k]
			lists[s][slot] = stripe.ReplicaEntry{Brick: b, Rank: k}
			if !live[s] {
				lost++
			}
		}
	}
	if lost == 0 {
		return nil
	}
	fr := &FileRepair{Path: path, LostReplicas: lost}

	// Plan first, copy second: a file that cannot be fully repaired is
	// left untouched.
	newLists := make([][]stripe.ReplicaEntry, nsrv)
	for s := 0; s < nsrv; s++ {
		if live[s] {
			newLists[s] = append([]stripe.ReplicaEntry(nil), lists[s]...)
		}
	}
	var ops []copyOp
	for b := 0; b < nb; b++ {
		// A surviving copy to pull from (lowest live rank).
		src := -1
		for k := 0; k < rs.Replicas(); k++ {
			if live[rs.Servers[b][k]] {
				src = rs.Servers[b][k]
				break
			}
		}
		for k := 0; k < rs.Replicas(); k++ {
			s := rs.Servers[b][k]
			if live[s] {
				continue
			}
			if src < 0 {
				fr.Err = fmt.Sprintf("brick %d: every replica is on a dead server", b)
				return fr
			}
			// Target: live server with the fewest bricks that does not
			// already hold this brick. The new copy inherits the dead
			// copy's rank and lands at the end of the target's list.
			dst := -1
			for t := 0; t < nsrv; t++ {
				if !live[t] || holdsBrick(newLists[t], b) {
					continue
				}
				if dst < 0 || len(newLists[t]) < len(newLists[dst]) {
					dst = t
				}
			}
			if dst < 0 {
				fr.Err = fmt.Sprintf("brick %d: no live server can take a new replica", b)
				return fr
			}
			newLists[dst] = append(newLists[dst], stripe.ReplicaEntry{Brick: b, Rank: k})
			ops = append(ops, copyOp{
				brick: b, rank: k,
				src: src, srcSlot: rs.SlotOn(b, src),
				dst: dst, dstSlot: int64(len(newLists[dst]) - 1),
			})
		}
	}

	newGen, err := r.cat.NextGeneration(fi.Path)
	if err != nil {
		fr.Err = err.Error()
		return fr
	}
	r.opts.Events.Emit(obs.EventRepairPlan, "repair", map[string]string{
		"path":    fi.Path,
		"lost":    fmt.Sprint(lost),
		"copies":  fmt.Sprint(len(ops)),
		"new_gen": fmt.Sprint(newGen),
	})

	// Step 1: every live server bumps its retained slots to newGen.
	g := &fi.Geometry
	slotB := g.SlotBytes()
	for s := 0; s < nsrv; s++ {
		if !live[s] || len(lists[s]) == 0 {
			continue
		}
		var pairs []wire.Extent
		var total int64
		flush := func() error {
			if len(pairs) == 0 {
				return nil
			}
			req := &wire.Request{
				Op: wire.OpCopy, Path: fi.Path, Gen: newGen,
				Extents: pairs,
				Data:    wire.FormatCopySource("", fi.Path, fi.Generation),
			}
			_, err := r.client(addrs[fi.Servers[s]]).Do(ctx, req)
			pairs, total = nil, 0
			return err
		}
		for slot, e := range lists[s] {
			blen := g.BrickBytesOf(e.Brick)
			off := int64(slot) * slotB
			pairs = append(pairs, wire.Extent{Off: off, Len: blen}, wire.Extent{Off: off, Len: blen})
			total += blen
			if total >= r.opts.CopyChunkBytes {
				if err := flush(); err != nil {
					fr.Err = fmt.Sprintf("bump %s: %v", fi.Servers[s], err)
					return fr
				}
			}
		}
		if err := flush(); err != nil {
			fr.Err = fmt.Sprintf("bump %s: %v", fi.Servers[s], err)
			return fr
		}
	}

	// Step 2: targets pull the lost bricks from surviving replicas at
	// the new generation.
	for _, op := range ops {
		blen := g.BrickBytesOf(op.brick)
		req := &wire.Request{
			Op: wire.OpCopy, Path: fi.Path, Gen: newGen,
			Extents: []wire.Extent{
				{Off: op.dstSlot * slotB, Len: blen},
				{Off: op.srcSlot * slotB, Len: blen},
			},
			Data: wire.FormatCopySource(addrs[fi.Servers[op.src]], fi.Path, newGen),
		}
		if _, err := r.client(addrs[fi.Servers[op.dst]]).Do(ctx, req); err != nil {
			fr.Err = fmt.Sprintf("copy brick %d to %s: %v", op.brick, fi.Servers[op.dst], err)
			return fr
		}
		fr.CopiedBricks++
	}

	// Step 3: commit the rewritten distribution. Dead servers keep a
	// row with an empty brick list, preserving the file's server-index
	// space.
	for s := 0; s < nsrv; s++ {
		if newLists[s] == nil {
			newLists[s] = []stripe.ReplicaEntry{}
		}
	}
	if err := r.cat.UpdateDistribution(fi.Path, fi.Servers, newLists, newGen); err != nil {
		fr.Err = fmt.Sprintf("commit: %v", err)
		return fr
	}
	fr.NewGen = newGen
	r.opts.Events.Emit(obs.EventRepairCommit, "repair", map[string]string{
		"path":    fi.Path,
		"copied":  fmt.Sprint(fr.CopiedBricks),
		"new_gen": fmt.Sprint(newGen),
	})

	// Step 4: best-effort cleanup of superseded generations, safe only
	// now that the catalog points at newGen.
	for s := 0; s < nsrv; s++ {
		if !live[s] || len(newLists[s]) == 0 {
			continue
		}
		req := &wire.Request{
			Op: wire.OpCopy, Path: fi.Path, Gen: newGen,
			Data: wire.FormatCopySource("", "", newGen),
		}
		_, _ = r.client(addrs[fi.Servers[s]]).Do(ctx, req)
	}
	r.opts.Events.Emit(obs.EventRepairCleanup, "repair", map[string]string{
		"path":    fi.Path,
		"new_gen": fmt.Sprint(newGen),
	})
	return fr
}

func holdsBrick(list []stripe.ReplicaEntry, brick int) bool {
	for _, e := range list {
		if e.Brick == brick {
			return true
		}
	}
	return false
}
