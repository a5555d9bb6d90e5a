package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

// foldLog records every fold invocation of one run.
type foldLog struct {
	cell, trial int
	rounds      int
	seedCheck   uint64
}

// poolFolds runs cells through the pool path and returns the fold
// sequence grouped per cell (pool folds of different cells interleave;
// within a cell the order is the determinism contract).
func poolFolds(t *testing.T, cfg Config, cells []Cell) map[int][]foldLog {
	t.Helper()
	got := make(map[int][]foldLog)
	var mu sync.Mutex
	err := RunCellsReduce(cfg, cells, func(cell, trial int, res *core.RunResult) error {
		mu.Lock()
		got[cell] = append(got[cell], foldLog{cell, trial, res.RoundsToSilence, 0})
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRunCellReduceMatchesPool: running cells one at a time through
// RunCellReduce — on a single reused WorkerCtx, in reverse order —
// reproduces the pool path's fold sequence exactly, including under a
// stop rule. This is the primitive campaign.Plan.Run executes its
// missing cells with: any assignment of cells to workers merges
// byte-identically.
func TestRunCellReduceMatchesPool(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fixed-budget", Config{Seed: 42, Trials: 5, Parallelism: 2}},
		{"adaptive", Config{Seed: 42, Parallelism: 2, Stop: StopRule{HalfWidth: 0.5, Min: 2, Max: 9}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			mk := func() []Cell {
				return syntheticCells(4, func(cell, trial int) int {
					if cell%2 == 0 {
						return 7 // zero variance: adaptive stops at Min
					}
					return (trial%2)*100 + cell // high variance: runs to Max
				})
			}
			want := poolFolds(t, tc.cfg, mk())

			w := newWorkerCtx()
			got := make(map[int][]foldLog)
			cells := mk()
			for i := len(cells) - 1; i >= 0; i-- { // reverse claim order
				err := RunCellReduce(tc.cfg, w, &cells[i], i, func(cell, trial int, res *core.RunResult) error {
					got[cell] = append(got[cell], foldLog{cell, trial, res.RoundsToSilence, 0})
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("cell coverage differs: got %d cells, want %d", len(got), len(want))
			}
			for cell, seq := range want {
				if fmt.Sprint(got[cell]) != fmt.Sprint(seq) {
					t.Fatalf("cell %d fold sequence differs:\npool:     %v\nper-cell: %v", cell, seq, got[cell])
				}
			}
		})
	}
}

// TestRunCellReduceAbsoluteIndex: events and fold callbacks carry the
// caller-provided index verbatim, so a service worker computing cell 17
// of a larger grid needs no remapping layer.
func TestRunCellReduceAbsoluteIndex(t *testing.T) {
	t.Parallel()
	cells := syntheticCells(1, func(cell, trial int) int { return 3 })
	sink := obsCollector{}
	cfg := Config{Seed: 1, Trials: 2, Parallelism: 1, Observer: &sink}
	err := RunCellReduce(cfg, newWorkerCtx(), &cells[0], 17, func(cell, trial int, res *core.RunResult) error {
		if cell != 17 {
			return fmt.Errorf("fold saw cell %d, want 17", cell)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.events) == 0 {
		t.Fatal("no events emitted")
	}
	for _, e := range sink.events {
		if e.Cell != 17 {
			t.Fatalf("event %s carries cell %d, want 17", e.Kind, e.Cell)
		}
	}
	// Trial seeds must be the engine's canonical derivation.
	wantSeed := rng.Derive(rng.DeriveString(1, cells[0].Key), 0)
	for _, e := range sink.events {
		if e.Kind == obs.KindTrialStart && e.Trial == 0 && e.Seed != wantSeed {
			t.Fatalf("trial 0 seed %d, want %d", e.Seed, wantSeed)
		}
	}
}

// obsCollector buffers events (single-goroutine use).
type obsCollector struct{ events []obs.Event }

func (c *obsCollector) Observe(e obs.Event) { c.events = append(c.events, e) }

// TestRunFaultCellReduceGuards: a cell fed to the entry point of the
// other cell kind errors instead of panicking — a plain cell on the
// fault path, and an injected-only cell on the plain paths.
func TestRunFaultCellReduceGuards(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 1, Trials: 1, Parallelism: 1}
	cells := syntheticCells(1, func(cell, trial int) int { return 1 })
	err := RunFaultCellReduce(cfg, newWorkerCtx(), &cells[0], 0,
		func(cell, trial int, res *core.FaultResult) error { return nil })
	if err == nil {
		t.Fatal("RunFaultCellReduce accepted a cell without RunFaultOn")
	}

	faultOnly := []Cell{{
		Key:        "fault-only",
		RunFaultOn: func(*core.Runner, int, uint64, *core.FaultResult) error { return nil },
	}}
	noFold := func(cell, trial int, res *core.RunResult) error { return nil }
	want := `cell "fault-only" has no RunOn`
	if err := RunCellReduce(cfg, newWorkerCtx(), &faultOnly[0], 0, noFold); err == nil || err.Error() != want {
		t.Fatalf("RunCellReduce on a fault-only cell: err = %v, want %q", err, want)
	}
	if err := RunCellsReduce(cfg, faultOnly, noFold); err == nil || err.Error() != want {
		t.Fatalf("RunCellsReduce on a fault-only cell: err = %v, want %q", err, want)
	}
}

// TestRunCellReduceRealProtocol: the per-cell path agrees with the pool
// on a real simulator cell (not just synthetic closures).
func TestRunCellReduceRealProtocol(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 2009, Trials: 4, MaxSteps: 100_000, Parallelism: 2}
	specs := []ProtoCell{
		{Graph: graph.Path(6), Family: FamColoring},
		{Graph: graph.Cycle(5), Family: FamMIS},
	}
	build := func() []Cell {
		cells, err := ProtoCells(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	want := poolFolds(t, cfg, build())

	w := newWorkerCtx()
	got := make(map[int][]foldLog)
	cells := build()
	for i := range cells {
		err := RunCellReduce(cfg, w, &cells[i], i, func(cell, trial int, res *core.RunResult) error {
			got[cell] = append(got[cell], foldLog{cell, trial, res.RoundsToSilence, 0})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for cell, seq := range want {
		if fmt.Sprint(got[cell]) != fmt.Sprint(seq) {
			t.Fatalf("cell %d differs:\npool:     %v\nper-cell: %v", cell, seq, got[cell])
		}
	}
}
