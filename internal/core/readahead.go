package core

import (
	"dpfs/internal/cache"
	"dpfs/internal/obs"
	"dpfs/internal/stripe"
)

// Readahead detects forward-sequential access per file handle and
// prefetches the next bricks into the data cache through the same
// striping and dispatch machinery as foreground reads, so a prefetch
// of k bricks costs one exchange per server, not k. Prefetch traffic
// runs under the engine's background context: it never blocks the
// caller, is cancelled by FS.Close, and its errors are dropped — a
// failed prefetch simply leaves the next read to fetch normally.

// triggerReadahead inspects a completed read plan and, when the handle
// is moving forward sequentially, kicks off an asynchronous prefetch
// of the following bricks. Called only after a successful read.
func (f *File) triggerReadahead(plan []stripe.BrickIO) {
	fs := f.fs
	if fs.opts.Readahead <= 0 || fs.dataCache == nil || len(plan) == 0 {
		return
	}
	lo, hi := plan[0].Brick, plan[0].Brick
	for _, bio := range plan[1:] {
		if bio.Brick < lo {
			lo = bio.Brick
		}
		if bio.Brick > hi {
			hi = bio.Brick
		}
	}
	nBricks := f.info.Geometry.NumBricks()

	f.raMu.Lock()
	seq := lo == f.raLast+1
	f.raLast = hi
	if !seq || f.raBusy {
		f.raMu.Unlock()
		return
	}
	start := hi + 1
	if f.raHigh+1 > start {
		start = f.raHigh + 1
	}
	end := hi + fs.opts.Readahead
	if end > nBricks-1 {
		end = nBricks - 1
	}
	if start > end {
		f.raMu.Unlock()
		return
	}
	f.raBusy = true
	f.raHigh = end
	f.raMu.Unlock()

	fs.raWG.Add(1)
	go func() {
		defer fs.raWG.Done()
		defer func() {
			f.raMu.Lock()
			f.raBusy = false
			f.raMu.Unlock()
		}()
		f.prefetch(start, end)
	}()
}

// prefetch fetches bricks [start, end] into the data cache. Bricks
// already cached are skipped. The BrickIOs carry no segments, so the
// exchanges fill the cache (whole-brick responses) without scattering
// anywhere.
func (f *File) prefetch(start, end int) {
	fs := f.fs
	gen := f.info.Generation
	var plan []stripe.BrickIO
	for b := start; b <= end; b++ {
		if _, ok := fs.dataCache.Get(cache.BrickKey{Path: f.info.Path, Gen: gen, Brick: b}); ok {
			continue
		}
		plan = append(plan, stripe.BrickIO{Brick: b})
	}
	if len(plan) == 0 {
		return
	}
	reqs := stripe.Combine(plan, f.assign)
	// Prefetch runs outside any caller's request, so it gets its own
	// root span: a traced readahead shows up in the log as its own
	// tree, stitched with the servers' spans like a foreground read.
	var root *obs.Span
	if fs.traces != nil {
		if fs.sample() {
			root = obs.NewRootSpan("client.readahead")
		} else {
			root = obs.NewSpan("client.readahead")
		}
		root.Op = "readahead"
		root.Path = f.info.Path
		root.Bricks = len(plan)
	}
	// Prefetch errors are intentionally dropped; see package comment.
	err := f.dispatch(fs.raCtx, reqs, nil, false, "readahead", root, nil)
	if root != nil {
		root.End()
		fs.traces.Add(&obs.Trace{Root: root})
	}
	if err == nil {
		fs.reg.Counter(cache.MetricPrefetch).Add(int64(len(plan)))
	}
}
