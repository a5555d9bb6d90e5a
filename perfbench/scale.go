package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

// The scale cell is E22's headline cell and cmd/ssscale's default: a
// 10⁶-process torus, COLORING, synchronous daemon, one trial to silence.
const (
	scaleW, scaleH = 1000, 1000
	scaleMaxSteps  = 1_000_000
	scaleSetups    = 3
)

// scaleSetup builds the torus and the system once, timing each half.
func scaleSetup() (*model.System, engine.Legitimacy, time.Duration, time.Duration, error) {
	t0 := time.Now()
	g := graph.Torus(scaleW, scaleH)
	t1 := time.Now()
	sys, legit, err := engine.System(g, engine.FamColoring)
	return sys, legit, t1.Sub(t0), time.Since(t1), err
}

// runScale measures the scale workload: one run to silence, driven
// through model.NewSimulator, Step, SilentNow and Recorder.ReportInto
// with a timestamp around each call. Its end-to-end figure is the median
// host time of one round (Step + SilentNow): every round is the same
// work, 10⁶ process moves, while the number of rounds is a seeded
// simulated statistic that varies from seed to seed (it is part of the
// fingerprint), and the first rounds also pay for growing the
// recorder's read sets. A traced run first runs the same trial through
// core.Runner.RunRandom, exactly as ssscale and E22 do, and checks that
// the hand-driven loop reproduces it, then drives the loop under a CPU
// profile.
func runScale(o options, c *checks) (map[string]float64, error) {
	var (
		sys                      *model.System
		legit                    engine.Legitimacy
		setups, toruses, systems []float64
		err                      error
	)
	for i := 0; i < scaleSetups; i++ {
		sys, legit = nil, nil
		runtime.GC()
		var tg, ts time.Duration
		sys, legit, tg, ts, err = scaleSetup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, (tg + ts).Seconds())
		toruses = append(toruses, tg.Seconds())
		systems = append(systems, ts.Seconds())
	}
	runSeed := rng.Derive(o.seed, 22)
	fmt.Printf("scale: torus %dx%d, n=%d, seed %d\n", scaleW, scaleH, sys.N(), runSeed)
	report("setup_s", median(setups), "s", fmt.Sprintf("graph.Torus + engine.System, median of %d", scaleSetups))

	var (
		ref     *core.RunResult
		refWall time.Duration
	)
	if o.trace {
		rn := core.NewRunner()
		ref = &core.RunResult{}
		start := time.Now()
		err = rn.RunRandom(sys, core.RunOptions{
			Scheduler:  sched.NewSynchronous(),
			Seed:       runSeed,
			MaxSteps:   scaleMaxSteps,
			Legitimate: legit,
		}, ref)
		if err != nil {
			return nil, err
		}
		refWall = time.Since(start)
		ref.Final = nil
		rn = nil
		runtime.GC()
	}

	var prof bytes.Buffer
	if o.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	tr, err := scaleHand(sys, legit, runSeed)
	if o.trace {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	ok := tr.silent && tr.legit
	c.op(ok)
	if !ok {
		c.fail("scale: run ended silent=%v legitimate=%v after %d steps", tr.silent, tr.legit, tr.steps)
	}
	rounds := float64(max(tr.rounds, 1))
	unit := median(append([]float64(nil), tr.perRound...))
	fp := scaleFingerprint(tr.steps, tr.rounds, tr.silent, tr.legit, &tr.rep)
	report("wall_s", tr.wall.Seconds(), "s", fmt.Sprintf("%d rounds, %d steps to silence", tr.rounds, tr.steps))
	report("unit_s", unit, "s", "median round: Step + SilentNow")
	unitCPU := median(append([]float64(nil), tr.perRoundCPU...))
	report("unit_cpu_s", unitCPU, "s", "user + system time of a round, median")
	report("mean round", tr.wall.Seconds()/rounds, "s", "wall_s / rounds")
	report("heap_bytes_per_proc", tr.heapPerProc, "B", "live heap after GC / n")
	printFingerprint("scale", fp)

	m := map[string]float64{"setup_s": median(setups), "unit_s": unit, "unit_cpu_s": unitCPU}
	if !o.trace {
		peak, err := procStatus("self", "VmHWM")
		if err != nil {
			return nil, err
		}
		m["peak_rss_mb"] = peak / 1024
		report("peak_rss_mb", peak/1024, "MB", "VmHWM")
		return m, nil
	}

	rfp := scaleFingerprint(ref.StepsToSilence, ref.RoundsToSilence, ref.Silent, ref.LegitimateAtSilence, &ref.Report)
	printFingerprint("scale(RunRandom)", rfp)
	if !reflect.DeepEqual(fp, rfp) || !reflect.DeepEqual(ref.Report, tr.rep) {
		c.fail("scale: hand-driven Step/SilentNow loop diverged from core.Runner.RunRandom")
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for k, v := range attribute(samples) {
		m[k] = v
	}
	illegit := 0.0
	if tr.silent && !tr.legit {
		illegit = 1
	}
	// Overhead compares whole runs: RunRandom untraced against the
	// hand-driven loop under the profile, per round.
	untracedRound, tracedRound := refWall.Seconds()/rounds, tr.wall.Seconds()/rounds
	for k, v := range map[string]float64{
		"graph.torus_s":             median(toruses),
		"engine.system_s":           median(systems),
		"model.step_s":              tr.step.Seconds(),
		"model.step_max_ms":         ms(tr.stepMax),
		"model.silent_now_s":        tr.silentNow.Seconds(),
		"trace.report_s":            tr.report.Seconds(),
		"model.heap_bytes_per_proc": tr.heapPerProc,
		"core.sim_steps":            float64(tr.steps),
		"core.sim_rounds":           float64(tr.rounds),
		"core.silent_illegit":       illegit,
		"engine.trials":             1,
		"bench.untraced_unit_s":     untracedRound,
		"bench.traced_unit_s":       tracedRound,
		"bench.trace_overhead_s":    tracedRound - untracedRound,
	} {
		m[k] = v
	}
	report("traced mean round", tracedRound, "s", fmt.Sprintf("RunRandom %.4f s; overhead %+.4f s per round",
		untracedRound, tracedRound-untracedRound))
	return m, nil
}

// scaleRun is the outcome and span totals of one hand-driven run.
type scaleRun struct {
	steps, rounds                 int
	silent, legit                 bool
	rep                           trace.Report
	wall, step, silentNow, report time.Duration
	stepMax                       time.Duration
	perRound                      []float64 // seconds of Step + SilentNow, per round
	perRoundCPU                   []float64 // their user + system time
	heapPerProc                   float64   // live heap after GC / n, simulator alive
}

// scaleHand reproduces core.Runner.RunRandom with checkEvery 1 — the
// same initial configuration, scheduler seed, recorder and silence
// checks — through model.NewSimulator, Step, SilentNow and
// Recorder.ReportInto, timing each call.
func scaleHand(sys *model.System, legit engine.Legitimacy, seed uint64) (*scaleRun, error) {
	start := time.Now()
	cfg := model.NewRandomConfig(sys, rng.New(seed))
	rec := trace.NewRecorder(sys.N())
	sim, err := model.NewSimulator(sys, cfg, sched.NewSynchronous(), seed, rec)
	if err != nil {
		return nil, err
	}
	cfg = nil
	out := &scaleRun{}
	t := time.Now()
	silent, err := sim.SilentNow()
	out.silentNow += time.Since(t)
	for err == nil && !silent && sim.Steps() < scaleMaxSteps {
		t, cpu0 := time.Now(), cpuTime()
		sim.Step()
		d := time.Since(t)
		out.step += d
		out.stepMax = max(out.stepMax, d)
		t = time.Now()
		silent, err = sim.SilentNow()
		ds := time.Since(t)
		out.silentNow += ds
		out.perRound = append(out.perRound, (d + ds).Seconds())
		out.perRoundCPU = append(out.perRoundCPU, (cpuTime() - cpu0).Seconds())
	}
	if err != nil {
		return nil, err
	}
	out.silent = silent
	out.steps, out.rounds = sim.Steps(), sim.Rounds()
	out.legit = silent && legit(sys, sim.Config())
	t = time.Now()
	rec.ReportInto(&out.rep)
	out.report = time.Since(t)
	out.wall = time.Since(start)

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out.heapPerProc = float64(m.HeapAlloc) / float64(sys.N())
	runtime.KeepAlive(sim)
	return out, nil
}

// scaleFingerprint is the exact-count identity of one scale run: its
// steps, rounds and outcome, and a digest of the recorder's report.
func scaleFingerprint(steps, rounds int, silent, legit bool, rep *trace.Report) map[string]string {
	var b []byte
	for _, v := range []int64{int64(rep.N), int64(rep.Steps), int64(rep.Rounds), rep.Moves,
		rep.Selections, rep.CommWrites, rep.TotalBits, rep.TotalReads,
		int64(rep.KEfficiency), int64(rep.CommComplexityBits)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, v := range rep.ReadSetSizes {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	sum := sha256.Sum256(b)
	return map[string]string{
		"steps":  strconv.Itoa(steps),
		"rounds": strconv.Itoa(rounds),
		"silent": strconv.FormatBool(silent),
		"legit":  strconv.FormatBool(legit),
		"moves":  strconv.FormatInt(rep.Moves, 10),
		"bits":   strconv.FormatInt(rep.TotalBits, 10),
		"report": fmt.Sprintf("%x", sum[:8]),
	}
}
