package service

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// faultCampaignSrc exercises the injected-trial path (adversary axis).
const faultCampaignSrc = `campaign svc-fault
seed 2009
trials 3
max-steps 100000
graph path 4..8/2
graph cycle 5
protocol coloring mis
adversary uniform k=1 inject=on-silence:2
metrics silent legitimate rounds moves injections recovered max-radius
`

// plainCampaignSrc exercises the plain (non-faulted) cell path.
const plainCampaignSrc = `campaign svc-plain
seed 2009
trials 5
max-steps 100000
graph path 4..8/2
graph cycle 5
protocol coloring mis
metrics silent legitimate rounds moves total-reads total-bits
`

// artifacts is one run's three deterministic outputs.
type artifacts struct{ jsonl, events, table string }

// cliArtifacts produces the reference bytes the CLI path emits for a
// campaign: campaign.Plan.Run at Parallelism 1 with no cache.
func cliArtifacts(t *testing.T, src string) artifacts {
	t.Helper()
	spec, err := campaign.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := campaign.Compile(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	replay := obs.NewReplaySink()
	out, err := plan.Run(context.Background(), campaign.RunOptions{Observer: replay})
	if err != nil {
		t.Fatal(err)
	}
	var jsonl, events bytes.Buffer
	if err := out.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := replay.WriteCanonical(&events); err != nil {
		t.Fatal(err)
	}
	return artifacts{jsonl.String(), events.String(), out.Table().String()}
}

// servedArtifacts submits a campaign, waits for it and returns the
// served outputs plus the run's cache hit/miss split.
func servedArtifacts(t *testing.T, svc *Service, src string) (a artifacts, hits, misses int) {
	t.Helper()
	r, err := svc.Submit(src)
	if err != nil {
		t.Fatal(err)
	}
	<-r.Done()
	if state, err := r.State(); state != StateDone {
		t.Fatalf("run %s: state %s, err %v", r.ID, state, err)
	}
	out := func(kind string) string {
		b, err := r.Output(kind)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	hits, misses = r.CacheStats()
	return artifacts{out("jsonl"), out("events"), out("table")}, hits, misses
}

// TestExecuteDeterminism is the served-equals-CLI contract: a service
// at Workers 1 and 4, cold and then warm over one shared backend,
// serves JSONL, summary tables and canonical event logs byte-identical
// to the CLI run at the same seed.
func TestExecuteDeterminism(t *testing.T) {
	t.Parallel()
	for _, src := range []string{faultCampaignSrc, plainCampaignSrc} {
		name := strings.Fields(src)[1]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want := cliArtifacts(t, src)
			const cells = 8
			for _, workers := range []int{1, 4} {
				svc := newTestService(t, Config{Workers: workers, Cache: campaign.NewMemBackend()})
				for _, pass := range []struct {
					name         string
					hits, misses int
				}{{"cold", 0, cells}, {"warm", cells, 0}} {
					got, hits, misses := servedArtifacts(t, svc, src)
					if got != want {
						t.Fatalf("workers=%d %s: served artifacts differ from the CLI run\n%s",
							workers, pass.name, diffHint(want.jsonl, got.jsonl))
					}
					if hits != pass.hits || misses != pass.misses {
						t.Fatalf("workers=%d %s: %d hits, %d misses, want %d and %d",
							workers, pass.name, hits, misses, pass.hits, pass.misses)
					}
				}
			}
		})
	}
}

func diffHint(want, got string) string {
	if want == got {
		return "(jsonl equal; table or events differ)"
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return "first differing jsonl line " + w[i] + " vs " + g[i]
		}
	}
	return "jsonl lengths differ"
}
