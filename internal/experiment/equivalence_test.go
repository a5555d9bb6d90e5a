package experiment

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
)

// referenceResults computes every trial of specs on the pre-Runner,
// one-shot execution path, sequentially: per trial a fresh random
// configuration, scheduler, recorder and simulator via core.Run, with
// the engine's canonical trial seeds. The pooled engine must reproduce
// its results exactly.
func referenceResults(t *testing.T, cfg Config, specs []engine.ProtoCell) [][]*core.RunResult {
	t.Helper()
	out := make([][]*core.RunResult, len(specs))
	for i, sp := range specs {
		sys, legit, err := protocolSystem(sp.Graph, sp.Family)
		if err != nil {
			t.Fatal(err)
		}
		mkSched, schedName := sp.Sched, sp.SchedName
		if mkSched == nil {
			mkSched, schedName = defaultSched, defaultSchedName
		}
		key := fmt.Sprintf("%s|%s|%s|%d", sp.Graph.Name(), sp.Family, schedName, sp.SuffixRounds)
		cellSeed := rng.DeriveString(cfg.Seed, key)
		for trial := 0; trial < cfg.Trials; trial++ {
			seed := rng.Derive(cellSeed, uint64(trial))
			res, err := core.Run(sys, model.NewRandomConfig(sys, rng.New(seed)), core.RunOptions{
				Scheduler:    mkSched(seed),
				Seed:         seed,
				MaxSteps:     cfg.MaxSteps,
				CheckEvery:   1,
				SuffixRounds: sp.SuffixRounds,
				Legitimate:   legit,
			})
			if err != nil {
				t.Fatal(err)
			}
			out[i] = append(out[i], res)
		}
	}
	return out
}

// reduceMatches folds specs through the pool at each parallelism and
// checks every result against want, in trial order per cell.
func reduceMatches(t *testing.T, cfg Config, specs []engine.ProtoCell, want [][]*core.RunResult) {
	t.Helper()
	for _, par := range []int{1, 4} {
		cfg.Parallelism = par
		lastTrial := make([]int, len(specs))
		for i := range lastTrial {
			lastTrial[i] = -1
		}
		err := engine.RunProtoCellsReduce(cfg.engineConfig(), specs, func(cell, trial int, res *core.RunResult) error {
			if trial != lastTrial[cell]+1 {
				return fmt.Errorf("cell %d: fold at trial %d after trial %d (want in-order)", cell, trial, lastTrial[cell])
			}
			lastTrial[cell] = trial
			if !reflect.DeepEqual(*want[cell][trial], *res) {
				return fmt.Errorf("cell %d (%s) trial %d differs:\nreference %+v\npooled    %+v",
					cell, specs[cell].Family, trial, *want[cell][trial], *res)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i, last := range lastTrial {
			if last != cfg.Trials-1 {
				t.Fatalf("parallelism %d: cell %d folded %d trials, want %d", par, i, last+1, cfg.Trials)
			}
		}
	}
}

// TestPooledMatchesUnpooled is the engine's correctness contract at the
// result level: the worker-affine Runner path (reused recorders,
// simulators, schedulers, configuration and result buffers) produces
// run results deep-equal to the one-shot path, trial by trial, across
// schedulers and parallelism levels.
func TestPooledMatchesUnpooled(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 11, Trials: 4, MaxSteps: 400000, Quick: true}
	graphs, err := suite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var specs []engine.ProtoCell
	for _, g := range graphs {
		specs = append(specs,
			engine.ProtoCell{Graph: g, Family: FamColoring, SuffixRounds: 2},
			engine.ProtoCell{Graph: g, Family: FamMIS},
			engine.ProtoCell{Graph: g, Family: FamMatching,
				Sched:     func(uint64) model.Scheduler { return sched.NewLaziestFair() },
				SchedName: "laziest-fair"},
		)
	}
	reduceMatches(t, cfg, specs, referenceResults(t, cfg, specs))
}

// TestReduceMatchesMaterialized: the streaming path folds exactly the
// results a sequential fresh-Runner loop materializes, in trial order
// per cell, with suffix recording on.
func TestReduceMatchesMaterialized(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 23, Trials: 3, MaxSteps: 400000, Quick: true}
	graphs, err := suite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var specs []engine.ProtoCell
	for _, g := range graphs {
		specs = append(specs, engine.ProtoCell{Graph: g, Family: FamColoring, SuffixRounds: 2})
	}
	reduceMatches(t, cfg, specs, referenceResults(t, cfg, specs))
}

// TestRegistryTablesAcrossSeedsAndParallelism is the acceptance-level
// determinism check: for fixed seeds the rendered tables of the
// registry's pool-driven experiments are byte-identical between
// Parallelism 1 and 4. E12 (wall-clock) and E22 (wall-clock and heap
// measurements) are excluded by design.
func TestRegistryTablesAcrossSeedsAndParallelism(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full registry sweep is a long test")
	}
	for _, seed := range []uint64{3, 2009} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, e := range Registry() {
				if e.ID == "E12" || e.ID == "E22" {
					continue
				}
				var tables []string
				for _, par := range []int{1, 4} {
					cfg := Config{Seed: seed, Trials: 3, MaxSteps: 400000, Quick: true, Parallelism: par}
					res, err := e.Run(cfg)
					if err != nil {
						t.Fatalf("%s parallelism %d: %v", e.ID, par, err)
					}
					tables = append(tables, res.Table.String())
				}
				if tables[0] != tables[1] {
					t.Fatalf("%s: tables differ between Parallelism 1 and 4:\n--- 1 ---\n%s\n--- 4 ---\n%s",
						e.ID, tables[0], tables[1])
				}
			}
		})
	}
}
