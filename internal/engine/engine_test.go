package engine

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
)

func TestFamiliesRegistry(t *testing.T) {
	t.Parallel()
	fams := Families()
	for _, want := range []string{
		FamColoring, FamColoringBaseline, FamMIS, FamMISBaseline,
		FamMatching, FamMatchingBaseline, FamBFSTree, FamFrozen,
	} {
		found := false
		for _, f := range fams {
			if f == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("Families() missing %q: %v", want, fams)
		}
	}
	for i := 1; i < len(fams); i++ {
		if fams[i-1] >= fams[i] {
			t.Fatalf("Families() not sorted: %v", fams)
		}
	}
}

func TestSystemBuildsEveryFamily(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(5)
	for _, fam := range Families() {
		sys, legit, err := System(g, fam)
		if err != nil {
			t.Fatalf("System(%s): %v", fam, err)
		}
		if sys == nil || legit == nil {
			t.Fatalf("System(%s): nil system or legitimacy", fam)
		}
	}
	if _, _, err := System(g, "teleport"); err == nil || !strings.Contains(err.Error(), "unknown protocol family") {
		t.Fatalf("unknown family accepted: %v", err)
	}
}

func TestSilentSnapshotsMatchProtoKeys(t *testing.T) {
	t.Parallel()
	g := graph.Path(6)
	cfg := Config{Seed: 2009, Trials: 3, MaxSteps: 100_000, Parallelism: 1}
	specs := []ProtoCell{{Graph: g, Family: FamColoring}, {Graph: g, Family: FamMIS}}
	snaps, err := SilentSnapshots(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0] == nil || snaps[1] == nil {
		t.Fatalf("snapshots missing: %v", snaps)
	}
	// Grouping must not matter: a per-spec call sees the same snapshot,
	// because trial seeds derive from the cell key alone.
	solo, err := SilentSnapshots(cfg, specs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if !snaps[0].Equal(solo[0]) {
		t.Fatal("snapshot depends on warm-up grouping; seed derivation broken")
	}
}

// referenceResults runs cfg.Trials trials of every cell sequentially,
// each on a fresh Runner into a fresh result, with the engine's
// canonical trial seeds: the reference the pooled fold must reproduce.
func referenceResults(t *testing.T, cfg Config, cells []Cell) [][]*core.RunResult {
	t.Helper()
	cfg = cfg.WithDefaults()
	out := make([][]*core.RunResult, len(cells))
	for i := range cells {
		cellSeed := rng.DeriveString(cfg.Seed, cells[i].Key)
		for trial := 0; trial < cfg.Trials; trial++ {
			res := &core.RunResult{}
			if err := cells[i].RunOn(core.NewRunner(), trial, rng.Derive(cellSeed, uint64(trial)), res); err != nil {
				t.Fatal(err)
			}
			out[i] = append(out[i], res)
		}
	}
	return out
}

// TestSilentSnapshotsFirstLegitimateTrial: each snapshot is the final
// configuration of the spec's first silent and legitimate trial in
// trial order, at every Parallelism, and every snapshot is an
// independent copy — it aliases neither another snapshot nor a worker
// buffer.
func TestSilentSnapshotsFirstLegitimateTrial(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 2009, Trials: 6, MaxSteps: 100_000}
	g := graph.Path(6)
	specs := []ProtoCell{
		{Graph: g, Family: FamColoring},
		{Graph: g, Family: FamMIS},
		{Graph: g, Family: FamMatching},
		{Graph: graph.Cycle(5), Family: FamColoring},
	}
	cells, err := ProtoCells(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceResults(t, cfg, cells)
	want := make([]*model.Config, len(specs))
	for i, trials := range ref {
		for _, r := range trials {
			if r.Silent && r.LegitimateAtSilence {
				want[i] = r.Final
				break
			}
		}
		if want[i] == nil {
			t.Fatalf("spec %d: reference found no legitimate silent trial", i)
		}
	}
	for _, par := range []int{1, 2} {
		cfg.Parallelism = par
		snaps, err := SilentSnapshots(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			if !snaps[i].Equal(want[i]) {
				t.Fatalf("parallelism %d spec %d: snapshot is not the first legitimate silent trial's final configuration", par, i)
			}
		}
		// Corrupt each snapshot in turn: the others must be unaffected.
		for i := range snaps {
			orig := snaps[i].Comm[0][0]
			snaps[i].Comm[0][0] = -1
			for j := range snaps {
				if j != i && !snaps[j].Equal(want[j]) {
					t.Fatalf("parallelism %d: mutating snapshot %d changed snapshot %d", par, i, j)
				}
			}
			snaps[i].Comm[0][0] = orig
		}
	}
}
