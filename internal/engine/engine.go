// Package engine is the parallel sharded trial engine shared by the
// experiment registry (internal/experiment) and the campaign subsystem
// (internal/campaign). Every cell — one protocol family on one graph
// under one scheduler, optionally with a fault adversary — expands into
// Config.Trials independent trials. A worker pool spreads the cells
// across Config.Parallelism goroutines, and the worker that claims a
// cell runs all of its trials in trial order. Each worker owns one
// reusable *core.Runner (recorder, simulator, scheduler, configuration
// buffers), so the steady-state trial loop allocates nothing. Results
// stream through a fold in trial order without being retained
// (RunCellsReduce for plain cells, RunFaultCellsReduce for injected
// ones). Callers with per-cell work of their own (the campaign executor
// stores each cell in its cache) drive the pool through ForEachWorker
// and run each cell with RunCellReduce or RunFaultCellReduce on the
// worker's WorkerCtx.
//
// Determinism: the seed of trial t of a cell is
//
//	rng.Derive(rng.DeriveString(Config.Seed, cell.Key), t)
//
// a pure function of the master seed, the cell key and the trial index.
// No seed depends on scheduling order, and results fold in trial order
// per cell, so the output is byte-identical for every Parallelism value
// (1 reproduces fully sequential execution) and identical to running
// every trial on a fresh core.Runner.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
)

// StopRule is the sequential trial-stopping criterion of the trial
// loop: instead of a fixed Config.Trials budget, a cell keeps
// running trials until the normal-approximation 95% confidence interval
// on its mean rounds-to-silence is at most HalfWidth wide (half-width),
// bounded below by Min and above by Max trials. Low-variance cells stop
// early; a cell whose interval never tightens runs exactly Max trials.
// Trials that exhaust the step budget fold their censored round count
// like any other observation, so a diverging cell cannot stall the rule.
//
// Determinism: the realized trial count is a pure function of the trial
// result stream, which is itself a pure function of (seed, cell key) —
// so adaptive runs stay byte-identical across Parallelism values.
type StopRule struct {
	// HalfWidth > 0 enables the rule: the target half-width of the 95%
	// CI on mean rounds-to-silence.
	HalfWidth float64
	// Min and Max bound the realized trial count. WithDefaults clamps
	// Min to at least 2 (no interval exists before the second trial)
	// and Max to at least Min.
	Min, Max int
}

// Enabled reports whether sequential stopping is active.
func (s StopRule) Enabled() bool { return s.HalfWidth > 0 }

// String renders the canonical form, "ci:HALFWIDTH:MIN..MAX" (used by
// the campaign DSL and the cache fingerprint); the zero rule is "none".
func (s StopRule) String() string {
	if !s.Enabled() {
		return "none"
	}
	return "ci:" + strconv.FormatFloat(s.HalfWidth, 'g', -1, 64) +
		":" + strconv.Itoa(s.Min) + ".." + strconv.Itoa(s.Max)
}

// withDefaults normalizes an enabled rule's bounds.
func (s StopRule) withDefaults() StopRule {
	if !s.Enabled() {
		return StopRule{}
	}
	if s.Min < 2 {
		s.Min = 2
	}
	if s.Max < s.Min {
		s.Max = s.Min
	}
	return s
}

// done reports whether a cell may stop after n trials whose
// rounds-to-silence stream is cs.
func (s StopRule) done(n int, cs *stats.Stream) bool {
	return n >= s.Min && (n >= s.Max || cs.CI95Half() <= s.HalfWidth)
}

// Config scales a trial run.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Trials is the number of adversarial initial configurations per
	// cell (default 5). Fewer run under an enabled Stop rule (which
	// replaces the fixed budget with its Min..Max bounds).
	Trials int
	// MaxSteps is the per-run step budget (default 1_000_000).
	MaxSteps int
	// Parallelism is the number of worker goroutines the trial pool uses
	// (default runtime.GOMAXPROCS(0)). Results are identical for every
	// value; see the package documentation.
	Parallelism int
	// Observer receives structured run events (nil: no observation, the
	// free default). The trial loop emits cell-start, trial-start,
	// trial-finish and cell-finish from the one worker that owns the
	// cell; core-level events (silence, injections, recovery episodes)
	// are emitted by the trial closures that thread an obs.Scope into
	// core.RunOptions.Events.
	Observer obs.Observer
	// Stop, when enabled, replaces the fixed Trials budget with
	// sequential stopping; see StopRule.
	Stop StopRule
}

// WithDefaults fills unset fields with the engine defaults.
func (c Config) WithDefaults() Config {
	if c.Trials <= 0 {
		c.Trials = 5
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 1_000_000
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	c.Stop = c.Stop.withDefaults()
	return c
}

// Cell is one unit of the experiment grid: a stable key used for seed
// derivation plus the function executing one adversarial trial. Plain
// cells set RunOn and run under RunCellsReduce; injected cells set
// RunFaultOn and run under RunFaultCellsReduce. The hooks must be safe
// for concurrent invocation across trials (systems and graphs are
// immutable after construction).
type Cell struct {
	// Key identifies the cell in the experiment grid; distinct cells of
	// one run must use distinct keys or they will share trial seeds.
	Key string
	// RunOn executes trial `trial` with the derived seed on the calling
	// worker's reusable Runner, filling the worker-owned res in place.
	RunOn func(rn *core.Runner, trial int, seed uint64, res *core.RunResult) error
	// RunFaultOn executes the trial as an injected (adversarial-fault)
	// trial, filling a FaultResult in place.
	RunFaultOn func(rn *core.Runner, trial int, seed uint64, res *core.FaultResult) error
}

func cellSeedsFor(cfg Config, cells []Cell) []uint64 {
	seeds := make([]uint64, len(cells))
	for i, c := range cells {
		seeds[i] = rng.DeriveString(cfg.Seed, c.Key)
	}
	return seeds
}

// WorkerCtx is the reusable per-worker execution context of the
// cell-at-a-time entry points (RunCellReduce, RunFaultCellReduce): the
// per-trial Runner plus its result buffers. Every pool worker owns one
// and reuses it across every cell it claims; ForEachWorker hands it to
// callers that run cells one at a time.
type WorkerCtx struct {
	rn       *core.Runner
	res      core.RunResult
	faultRes core.FaultResult
}

// newWorkerCtx returns a fresh worker context.
func newWorkerCtx() *WorkerCtx {
	return &WorkerCtx{rn: core.NewRunner()}
}

// RunCellReduce executes one cell's trials on w, folding every result
// in trial order: the per-cell execution primitive behind
// RunCellsReduce. idx is the cell index stamped on events and passed to
// fold — callers running a sub-set of a larger grid pass the absolute
// index, so no remapping layer is needed. Trial seeds derive from
// (cfg.Seed, cell.Key, trial) alone: for a fixed cfg the fold sequence
// and the emitted events are byte-identical no matter which worker runs
// the cell or in what order cells are claimed.
func RunCellReduce(cfg Config, w *WorkerCtx, cell *Cell, idx int, fold func(cell, trial int, res *core.RunResult) error) error {
	cfg = cfg.WithDefaults()
	return runCellReduce(cfg, w, cell, idx, rng.DeriveString(cfg.Seed, cell.Key), fold)
}

// RunFaultCellReduce is RunCellReduce for injected-trial cells (cells
// that set RunFaultOn).
func RunFaultCellReduce(cfg Config, w *WorkerCtx, cell *Cell, idx int, fold func(cell, trial int, res *core.FaultResult) error) error {
	cfg = cfg.WithDefaults()
	return runFaultCellReduce(cfg, w, cell, idx, rng.DeriveString(cfg.Seed, cell.Key), fold)
}

// runCellReduce runs one plain cell.
func runCellReduce(cfg Config, w *WorkerCtx, cell *Cell, idx int, cellSeed uint64, fold func(cell, trial int, res *core.RunResult) error) error {
	if cell.RunOn == nil {
		return fmt.Errorf("cell %q has no RunOn", cell.Key)
	}
	return runTrials(cfg, cell.Key, idx, cellSeed,
		func(trial int, seed uint64) (*core.RunResult, int, error) {
			return &w.res, 0, cell.RunOn(w.rn, trial, seed, &w.res)
		},
		func(trial int) error { return fold(idx, trial, &w.res) })
}

// runFaultCellReduce runs one injected-trial cell.
func runFaultCellReduce(cfg Config, w *WorkerCtx, cell *Cell, idx int, cellSeed uint64, fold func(cell, trial int, res *core.FaultResult) error) error {
	if cell.RunFaultOn == nil {
		return fmt.Errorf("cell %q has no RunFaultOn", cell.Key)
	}
	return runTrials(cfg, cell.Key, idx, cellSeed,
		func(trial int, seed uint64) (*core.RunResult, int, error) {
			err := cell.RunFaultOn(w.rn, trial, seed, &w.faultRes)
			return &w.faultRes.RunResult, w.faultRes.Injections, err
		},
		func(trial int) error { return fold(idx, trial, &w.faultRes) })
}

// runTrials is the trial loop of one cell, shared by both cell kinds:
// run executes a trial into a worker-owned buffer and returns its
// outcome plus the trial-finish event's Count (injections; 0 for plain
// trials), then fold consumes the buffer. Events, fold and the stop
// rule see trials strictly in trial order.
func runTrials(cfg Config, key string, idx int, cellSeed uint64,
	run func(trial int, seed uint64) (*core.RunResult, int, error), fold func(trial int) error) error {
	obs.Emit(cfg.Observer, obs.Event{Kind: obs.KindCellStart, Cell: idx, Key: key, Trial: -1})
	budget := cfg.Trials
	if cfg.Stop.Enabled() {
		budget = cfg.Stop.Max
	}
	var rounds stats.Stream
	realized := 0
	for trial := 0; trial < budget; trial++ {
		seed := rng.Derive(cellSeed, uint64(trial))
		obs.Emit(cfg.Observer, obs.Event{Kind: obs.KindTrialStart, Cell: idx, Key: key, Trial: trial, Seed: seed})
		res, count, err := run(trial, seed)
		if err != nil {
			return fmt.Errorf("cell %q trial %d: %w", key, trial, err)
		}
		obs.Emit(cfg.Observer, obs.Event{Kind: obs.KindTrialFinish, Cell: idx, Key: key, Trial: trial,
			Silent: res.Silent, Legit: res.LegitimateAtSilence,
			Step: res.StepsToSilence, Round: res.RoundsToSilence, Count: count})
		if err := fold(trial); err != nil {
			return fmt.Errorf("cell %q trial %d: %w", key, trial, err)
		}
		realized = trial + 1
		if cfg.Stop.Enabled() {
			rounds.Add(float64(res.RoundsToSilence))
			if cfg.Stop.done(realized, &rounds) {
				break
			}
		}
	}
	obs.Emit(cfg.Observer, obs.Event{Kind: obs.KindCellFinish, Cell: idx, Key: key, Trial: -1, Count: realized})
	return nil
}

// RunCellsReduce executes cfg.Trials trials of every cell (or an
// adaptive count under an enabled cfg.Stop rule) and streams every
// result through fold instead of materializing the grid: memory stays
// O(cells + workers) instead of O(cells × trials × n). When
// cfg.Observer is set, the loop emits cell-start / trial-start /
// trial-finish / cell-finish events, all from the one worker that owns
// the cell, in trial order.
//
// Scheduling is cell-affine — one worker owns all trials of a cell,
// running them in trial order on its reusable Runner — so fold(cell,
// trial, res) is invoked in increasing trial order within each cell and
// aggregation is deterministic at every Parallelism. fold runs
// concurrently for DIFFERENT cells (never for the same cell): per-cell
// accumulators indexed by cell need no locking, anything shared across
// cells does. res is a worker-owned buffer valid only for the duration
// of the call; fold must copy whatever needs to survive.
//
// Cell affinity means effective parallelism is bounded by len(cells)
// (the registry's grids have tens of cells, comfortably above typical
// core counts).
func RunCellsReduce(cfg Config, cells []Cell, fold func(cell, trial int, res *core.RunResult) error) error {
	cfg = cfg.WithDefaults()
	cellSeeds := cellSeedsFor(cfg, cells)
	return forEachCtx(context.Background(), cfg.Parallelism, len(cells), newWorkerCtx, func(w *WorkerCtx, i int) error {
		return runCellReduce(cfg, w, &cells[i], i, cellSeeds[i], fold)
	})
}

// RunFaultCellsReduce is RunCellsReduce for injected trials: every cell
// must set RunFaultOn, and every result — the final run outcome plus the
// per-injection recovery episodes — streams through fold. Scheduling,
// trial seeds, cell affinity, sequential stopping, events and the
// fold's ordering/concurrency contract are exactly RunCellsReduce's;
// res (including res.Episodes) is a worker-owned buffer valid only for
// the duration of the call.
func RunFaultCellsReduce(cfg Config, cells []Cell, fold func(cell, trial int, res *core.FaultResult) error) error {
	cfg = cfg.WithDefaults()
	cellSeeds := cellSeedsFor(cfg, cells)
	return forEachCtx(context.Background(), cfg.Parallelism, len(cells), newWorkerCtx, func(w *WorkerCtx, i int) error {
		return runFaultCellReduce(cfg, w, &cells[i], i, cellSeeds[i], fold)
	})
}

// ForEach runs fn(0..n-1) on up to `workers` goroutines (<=0 selects
// GOMAXPROCS). After the first error, idle workers stop picking up new
// jobs; in-flight jobs run to completion. Among the errors observed, the
// one with the lowest job index is returned.
func ForEach(workers, n int, fn func(i int) error) error {
	return forEachCtx(context.Background(), workers, n, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) error { return fn(i) })
}

// ForEachWorker is ForEach for callers that run cells one at a time
// (RunCellReduce, RunFaultCellReduce) around their own per-cell work:
// each worker goroutine owns one WorkerCtx, reused for every job it
// claims. ctx is checked before each claim: once it is canceled no
// worker claims another job, in-flight jobs run to completion, and
// ForEachWorker returns ctx.Err() if any job was left unclaimed.
func ForEachWorker(ctx context.Context, workers, n int, fn func(w *WorkerCtx, i int) error) error {
	return forEachCtx(ctx, workers, n, newWorkerCtx, fn)
}

// forEachCtx is the pool behind ForEach, ForEachWorker and the
// *CellsReduce entry points: every worker goroutine calls newState once
// and passes that state to each job it executes, giving jobs
// worker-affine reusable state (the trial engine's *core.Runner)
// without synchronization. Workers claim jobs from one atomic counter,
// checking ctx before each claim; a cancel that leaves jobs unclaimed
// returns ctx.Err(), unless a job failed (its error wins).
func forEachCtx[T any](ctx context.Context, workers, n int, newState func() T, fn func(st T, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		st := newState()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(st, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup

		mu       sync.Mutex
		errIdx   = n
		firstErr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			st := newState()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(st, i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr == nil && next.Load() < int64(n) {
		// No job failed, yet some were never claimed: every worker
		// stopped at the ctx check.
		return ctx.Err()
	}
	return firstErr
}
