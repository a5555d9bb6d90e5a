package campaign

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rng"
)

// ErrDrained reports a run whose context was canceled before every
// owned cell completed. Cells finished before the drain are already
// stored in the cache backend, so re-running the campaign over the same
// backend resumes from them and produces byte-identical final output.
var ErrDrained = errors.New("campaign: run drained before completion")

// RunOptions configures one execution of a compiled plan.
type RunOptions struct {
	// Shard/Shards selects a K-of-N slice of the campaign: shard i of n
	// owns the contiguous cell-index range [i*C/n, (i+1)*C/n). Shards
	// <= 1 runs everything. The partition is a pure function of the
	// cell order, so separate processes (or machines) given distinct
	// shards compute disjoint cells, and concatenating their outputs in
	// shard order reproduces the unsharded output byte for byte.
	Shard, Shards int
	// Cache enables the content-addressed result cache (nil: disabled):
	// each computed cell is stored under its fingerprint as soon as it
	// completes, and a re-run (or a grown campaign sharing cells, or a
	// drained run resumed) recomputes only what is missing. The CLI
	// passes a DirBackend; the campaign service a shared cross-run
	// backend.
	Cache Backend
	// Observer receives the run's structured events (nil: none). Cells
	// served from the cache replay their canonical lifecycle events from
	// the stored records — with the same trial seeds the engine would
	// derive — so a ReplaySink's canonical log is byte-identical between
	// cold-cache and warm-cache runs (and across Parallelism values; see
	// internal/obs).
	Observer obs.Observer
}

// CellResult pairs one owned cell with its per-trial records.
type CellResult struct {
	Cell *CellSpec
	// Records holds one entry per trial, in trial order.
	Records []TrialRecord
	// FromCache reports whether the records were loaded rather than
	// computed.
	FromCache bool
}

// Outcome is the result of running a plan: the owned cells' records in
// deterministic cell order, plus cache statistics.
type Outcome struct {
	Plan *Plan
	// Results covers exactly the owned shard, ordered by cell index.
	Results []CellResult
	// CacheHits/CacheMisses count owned cells served from / written to
	// the cache (both zero when caching is disabled).
	CacheHits, CacheMisses int
}

// recordBounds returns the record-count bounds a cache entry must
// satisfy: a fixed budget is exact, an adaptive cell's realized count
// lands anywhere in the stop rule's bounds (the count itself
// round-trips as len(Records)).
func (p *Plan) recordBounds() (minRecs, maxRecs int) {
	if p.cfg.Stop.Enabled() {
		return p.cfg.Stop.Min, p.cfg.Stop.Max
	}
	return p.cfg.Trials, p.cfg.Trials
}

// Run executes the plan's owned shard: it is the one campaign executor,
// behind both the CLI and the campaign service. A sequential cache pass
// serves the cells already known; the engine pool computes the rest at
// the plan's Parallelism, each worker storing its cell in the cache the
// moment the cell completes.
// Records are deterministic: for a fixed campaign file the bytes of
// every record, and the canonical event stream, are identical across
// parallelism, sharding and cache state.
//
// Canceling ctx drains the run: no worker claims another cell, cells in
// flight finish and are stored, and Run returns ErrDrained if owned
// cells were left. A cancel that lands after the last cell was claimed
// is not a drain: the output is whole.
func (p *Plan) Run(ctx context.Context, opts RunOptions) (*Outcome, error) {
	lo, hi, err := shardRange(len(p.Cells), opts.Shard, opts.Shards)
	if err != nil {
		return nil, err
	}
	p.SetObserver(opts.Observer)
	be := opts.Cache
	out := &Outcome{Plan: p, Results: make([]CellResult, hi-lo)}
	obs.Emit(opts.Observer, obs.Event{
		Kind: obs.KindCampaignStart, Cell: -1, Key: p.Spec.Name, Trial: -1, Count: hi - lo,
	})

	// Cache pass: fill what's already known, collect the rest. Hits
	// replay their canonical events so observers see the full campaign
	// regardless of cache state.
	minRecs, maxRecs := p.recordBounds()
	var missing []int // absolute cell indices
	for i := lo; i < hi; i++ {
		cs := &p.Cells[i]
		r := &out.Results[i-lo]
		r.Cell = cs
		if be != nil {
			recs, err := loadCache(be, p.cellFingerprint(cs), minRecs, maxRecs)
			if err != nil {
				obs.Emit(opts.Observer, obs.Event{Kind: obs.KindCacheCorrupt, Cell: i, Key: cs.Key, Trial: -1})
			}
			if recs != nil {
				r.Records, r.FromCache = recs, true
				out.CacheHits++
				p.replayCell(opts.Observer, cs, recs)
				continue
			}
			obs.Emit(opts.Observer, obs.Event{Kind: obs.KindCacheMiss, Cell: i, Key: cs.Key, Trial: -1})
		}
		missing = append(missing, i)
	}

	// Compute pass: the pool hands the missing cells out one at a time.
	// A cell's records depend on (seed, cell key) alone and land in the
	// cell's own Outcome slot, so no claim order can change the output.
	// Snapshot warm-ups and system construction happen here, for exactly
	// the cells about to execute: a fully-cached resume, and shards
	// owning none of a cell, never pay for it.
	if len(missing) > 0 {
		if err := p.materialize(missing); err != nil {
			return nil, err
		}
		err := engine.ForEachWorker(ctx, p.cfg.Parallelism, len(missing), func(w *engine.WorkerCtx, j int) error {
			i := missing[j]
			recs, err := p.computeCell(w, i)
			if err != nil {
				return err
			}
			if be != nil {
				// Stored before the next claim: this is what makes a
				// drain resumable.
				if err := storeCache(be, p.cellFingerprint(&p.Cells[i]), recs); err != nil {
					return fmt.Errorf("cell %q: %w", p.Cells[i].Key, err)
				}
			}
			out.Results[i-lo].Records = recs
			return nil
		})
		if err != nil {
			if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
				return nil, err
			}
			left := 0
			for _, i := range missing {
				if out.Results[i-lo].Records == nil {
					left++
				}
			}
			return nil, fmt.Errorf("%w: %d of %d cells remain", ErrDrained, left, hi-lo)
		}
		if be != nil {
			out.CacheMisses = len(missing)
		}
	}
	obs.Emit(opts.Observer, obs.Event{
		Kind: obs.KindCampaignFinish, Cell: -1, Key: p.Spec.Name, Trial: -1, Count: hi - lo,
	})
	return out, nil
}

// computeCell runs cell i's trials on the worker's context and returns
// its records in trial order. Seeds, events and the stop rule are the
// engine's, stamped with the absolute cell index, so the records are
// the same whichever worker runs the cell.
func (p *Plan) computeCell(w *engine.WorkerCtx, i int) ([]TrialRecord, error) {
	recs := make([]TrialRecord, 0, p.cfg.Trials)
	if p.Faulted {
		err := engine.RunFaultCellReduce(p.cfg, w, &p.cells[i], i,
			func(_, _ int, res *core.FaultResult) error {
				var rec TrialRecord
				rec.fillFault(res)
				recs = append(recs, rec)
				return nil
			})
		return recs, err
	}
	err := engine.RunCellReduce(p.cfg, w, &p.cells[i], i,
		func(_, _ int, res *core.RunResult) error {
			var rec TrialRecord
			rec.fillRun(res)
			recs = append(recs, rec)
			return nil
		})
	return recs, err
}

// replayCell emits a cached cell's canonical lifecycle events,
// reconstructed from its stored records: the same cell-start,
// trial-start (with the engine's exact derived seeds), trial-finish and
// cell-finish a compute pass would emit. Diagnostic detail (silence
// instants, episodes) is not stored, so only a KindCacheHit marks the
// difference — and that kind never enters canonical logs.
func (p *Plan) replayCell(o obs.Observer, cs *CellSpec, recs []TrialRecord) {
	if o == nil {
		return
	}
	obs.Emit(o, obs.Event{Kind: obs.KindCacheHit, Cell: cs.Index, Key: cs.Key, Trial: -1, Count: len(recs)})
	obs.Emit(o, obs.Event{Kind: obs.KindCellStart, Cell: cs.Index, Key: cs.Key, Trial: -1})
	cellSeed := rng.DeriveString(p.cfg.Seed, cs.Key)
	for t := range recs {
		r := &recs[t]
		obs.Emit(o, obs.Event{
			Kind: obs.KindTrialStart, Cell: cs.Index, Key: cs.Key, Trial: t,
			Seed: rng.Derive(cellSeed, uint64(t)),
		})
		obs.Emit(o, obs.Event{
			Kind: obs.KindTrialFinish, Cell: cs.Index, Key: cs.Key, Trial: t,
			Silent: r.Silent, Legit: r.Legitimate,
			Step: r.Steps, Round: r.Rounds, Count: r.Injections,
		})
	}
	obs.Emit(o, obs.Event{Kind: obs.KindCellFinish, Cell: cs.Index, Key: cs.Key, Trial: -1, Count: len(recs)})
}

// shardRange returns the owned [lo, hi) cell-index range. Shards are
// capped at maxCells (more shards than cells could ever exist is a
// driver bug) which also keeps shard*n within int64 on every platform.
func shardRange(n, shard, shards int) (int, int, error) {
	if shards <= 1 {
		if shard != 0 {
			return 0, 0, fmt.Errorf("campaign: shard %d/%d out of range", shard, shards)
		}
		return 0, n, nil
	}
	if shards > maxCells {
		return 0, 0, fmt.Errorf("campaign: %d shards exceed the %d-cell limit", shards, maxCells)
	}
	if shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("campaign: shard %d/%d out of range (want 0 <= shard < shards)", shard, shards)
	}
	lo := int(int64(shard) * int64(n) / int64(shards))
	hi := int(int64(shard+1) * int64(n) / int64(shards))
	return lo, hi, nil
}
