package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/model.(*Simulator).Step":                       "repro/internal/model",
		"repro/internal/engine.forEachCtx[go.shape.*uint8]":            "repro/internal/engine",
		"repro/internal/engine.RunCellsReduce.func1":                   "repro/internal/engine",
		"repro/internal/protocols/coloring.Spec.func6":                 "repro/internal/protocols/coloring",
		"encoding/json.(*encodeState).marshal":                         "encoding/json",
		"net/http.(*conn).serve":                                       "net/http",
		"runtime.mallocgc":                                             "runtime",
		"main.runPass":                                                 "main",
		"internal/runtime/syscall.Syscall6":                            "internal/runtime/syscall",
		"repro/internal/engine.forEachCtx[go.shape.*repro/internal/x]": "repro/internal/engine",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q; want %q", fn, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"repro/internal/model.(*Simulator).Step"}, "model"},
		{[]string{"repro/internal/protocols/coloring.Spec.func6", "repro/internal/model.execOne"}, "protocols"},
		{[]string{"repro/internal/trace.(*Recorder).StepEnd"}, "trace"},
		{[]string{"repro/internal/stats.(*Table).String", "main.runPass"}, "other"},
		{[]string{"encoding/json.(*encodeState).marshal", "repro/internal/service.writeJSON"}, "json"},
		// Unlisted standard packages and runtime helpers count toward
		// the nearest layer that called them.
		{[]string{"strconv.AppendInt", "encoding/json.intEncoder", "repro/internal/service.writeJSON"}, "json"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.openat", "os.CreateTemp",
			"repro/internal/campaign.(*DirBackend).Store"}, "campaign"},
		{[]string{"runtime.memmove", "repro/internal/model.(*Config).CopyFrom"}, "model"},
		{[]string{"internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*response).Flush"}, "http"},
		// The collector and the allocator are "gc", whoever allocated.
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "repro/internal/model.NewZeroConfig"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q; want %q", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

// TestParseProfile decodes a real CPU profile: the busy loop's samples
// land in "other" (package main), labelled samples are excluded.
func TestParseProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("takes a second of CPU")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(500 * time.Millisecond)
	pprof.Do(context.Background(), pprof.Labels(clientLabel, "0"), func(context.Context) {
		spin(500 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var labelled, spun int
	for _, s := range samples {
		if s.labels[clientLabel] != "" {
			labelled++
		}
		for _, fn := range s.stack {
			if fn == "repro/perfbench.spin" || fn == "main.spin" {
				spun++
				break
			}
		}
	}
	if labelled == 0 || spun <= labelled {
		t.Fatalf("%d samples, %d in spin, %d labelled; want both halves of the spin", len(samples), spun, labelled)
	}
	got := attribute(samples)
	total := 0.0
	for _, l := range layers {
		total += got[l+".self_cpu_s"]
	}
	if total <= 0.1 || total > 0.9 {
		t.Errorf("unlabelled CPU %.2fs; want about 0.5s", total)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json's metric lists
// identical, name for name and unit for unit, to what the benchmark
// prints.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}
