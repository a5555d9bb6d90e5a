package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiment"
)

// registryTrials is the trial count of the measured passes: the full
// (non-quick) suite at 100 trials per cell, where E19's known
// silent-but-illegitimate MIS trials show on many seeds.
const registryTrials = 100

// quickPasses is how many quick-suite passes set-up times. Each takes
// tens of milliseconds, so the median needs more of them than the scale
// set-up does.
const quickPasses = 7

// registryIDs are the experiments of one pass: E1–E21. E22 is the scale
// workload's cell.
func registryIDs() []string {
	ids := make([]string, 21)
	for i := range ids {
		ids[i] = "E" + strconv.Itoa(i+1)
	}
	return ids
}

// registryPass is one pass over the registry. Untraced passes run in a
// child process of their own, as a user's ssbench run does, and report
// it as JSON; PeakKB is that process's VmHWM.
type registryPass struct {
	Wall   time.Duration   `json:"wall_ns"`
	CPU    time.Duration   `json:"cpu_ns"` // user + system time of the pass
	Per    []time.Duration `json:"per_ns"` // per experiment, in id order
	Digest string          `json:"digest"` // tables of every experiment but E12
	Failed []string        `json:"failed"` // ids with a FAIL verdict or an error
	Errors []string        `json:"errors"`
	PeakKB float64         `json:"peak_kb"`
}

func registryConfig(o options) experiment.Config {
	return experiment.Config{Seed: o.seed, Trials: registryTrials, Parallelism: o.workers}
}

// runPass runs every experiment once through experiment.ByID. E12 is
// left out of the digest: its table reports wall-clock figures.
func runPass(cfg experiment.Config) registryPass {
	ids := registryIDs()
	p := registryPass{Per: make([]time.Duration, len(ids))}
	h := sha256.New()
	start, cpu0 := time.Now(), cpuTime()
	for i, id := range ids {
		t := time.Now()
		run, err := experiment.ByID(id)
		var res *experiment.Result
		if err == nil {
			res, err = run(cfg)
		}
		p.Per[i] = time.Since(t)
		if err != nil {
			p.Errors = append(p.Errors, fmt.Sprintf("%s: %v", id, err))
			p.Failed = append(p.Failed, id)
			continue
		}
		if !res.Pass {
			p.Failed = append(p.Failed, id)
		}
		if id != "E12" {
			fmt.Fprintf(h, "%s pass=%v\n%s\n", id, res.Pass, res.Table.String())
		}
	}
	p.Wall, p.CPU = time.Since(start), cpuTime()-cpu0
	p.Digest = fmt.Sprintf("%x", h.Sum(nil)[:8])
	return p
}

// registryChild runs one untraced pass in this process and prints it as
// one JSON line.
func registryChild(o options) error {
	p := runPass(registryConfig(o))
	peak, err := procStatus("self", "VmHWM")
	if err != nil {
		return err
	}
	p.PeakKB = peak
	return json.NewEncoder(os.Stdout).Encode(p)
}

// childPass runs one untraced pass in a fresh child process.
func childPass(o options) (registryPass, error) {
	self, err := os.Executable()
	if err != nil {
		return registryPass{}, err
	}
	cmd := exec.Command(self, "--registry-pass", "--seed", strconv.FormatUint(o.seed, 10))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return registryPass{}, fmt.Errorf("registry pass: %w", err)
	}
	var p registryPass
	if err := json.Unmarshal(out, &p); err != nil {
		return registryPass{}, fmt.Errorf("registry pass output: %w", err)
	}
	return p, nil
}

// runRegistry measures the registry workload: passes over E1–E21, each
// in a fresh process, until the time budget is spent, reporting the
// median pass. Set-up is the registry's fixed cost — graph suites,
// systems and pool start-up — measured as passes on the quick suite at
// two trials. A traced run alternates those passes with in-process
// passes under a timing observer and a CPU profile.
func runRegistry(o options, c *checks) (map[string]float64, error) {
	quick := registryConfig(o)
	quick.Quick, quick.Trials = true, 2
	var setups []float64
	for i := 0; i < quickPasses; i++ {
		p := runPass(quick)
		setups = append(setups, p.Wall.Seconds())
		for _, e := range p.Errors {
			c.fail("registry set-up: %s", e)
		}
	}

	var (
		untraced, traced []registryPass
		obsv             []*timingObserver
		cpu              = map[string]float64{}
	)
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for {
		p, err := childPass(o)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, p)
		if o.trace {
			tcfg := registryConfig(o)
			t := newTimingObserver()
			tcfg.Observer = t
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
			traced = append(traced, runPass(tcfg))
			pprof.StopCPUProfile()
			samples, err := parseProfile(prof.Bytes())
			if err != nil {
				return nil, err
			}
			for k, v := range attribute(samples) {
				cpu[k] += v
			}
			obsv = append(obsv, t)
		}
		minPasses := 3
		if o.trace {
			minPasses = 2
		}
		if time.Since(start) >= budget && len(untraced) >= minPasses {
			break
		}
	}

	// One op per experiment, failed when the experiment fails on any
	// pass. Every pass of a run repeats the same seeded computation, so
	// counting per pass would make the failed count depend on how many
	// passes fit in the time budget. The digest holds every verdict but
	// E12's, whose goroutine runs depend on the OS scheduler.
	all := append(append([]registryPass{}, untraced...), traced...)
	for _, p := range all {
		for _, e := range p.Errors {
			c.fail("registry: %s", e)
		}
		if p.Digest != all[0].Digest {
			c.fail("registry: table digest %s differs from the first pass's %s", p.Digest, all[0].Digest)
		}
	}
	var failedIDs []string
	for _, id := range registryIDs() {
		ok := true
		for _, p := range all {
			ok = ok && !contains(p.Failed, id)
		}
		c.op(ok)
		if !ok {
			failedIDs = append(failedIDs, id)
		}
	}
	var walls, cpus, peaks []float64
	for _, p := range untraced {
		walls = append(walls, p.Wall.Seconds())
		cpus = append(cpus, p.CPU.Seconds())
		peaks = append(peaks, p.PeakKB/1024)
	}
	unit := median(walls)

	fmt.Printf("registry: E1–E21, full suite, %d trials, parallelism %d, seed %d, %d passes\n",
		registryTrials, o.workers, o.seed, len(untraced))
	report("setup_s", median(setups), "s", fmt.Sprintf("quick suite at 2 trials, median of %d", quickPasses))
	report("wall_s", unit, "s", fmt.Sprintf("median E1–E21 pass of %d", len(untraced)))
	report("unit_cpu_s", median(cpus), "s", "user + system time of a pass, median")
	report("peak_rss_mb", median(peaks), "MB", "VmHWM of a pass's process, median over passes")
	fp := map[string]string{
		"digest": all[0].Digest,
		"failed": strings.Join(failedIDs, ","),
	}
	m := map[string]float64{"unit_s": unit, "unit_cpu_s": median(cpus), "setup_s": median(setups), "peak_rss_mb": median(peaks)}
	if !o.trace {
		printFingerprint("registry", fp)
		return m, nil
	}

	// Exact counts must repeat on every traced pass.
	first := obsv[0]
	for _, t := range obsv {
		if t.cells != first.cells || t.trials != first.trials || t.steps != first.steps ||
			t.rounds != first.rounds || t.illegit != first.illegit {
			c.fail("registry: observer counts differ between traced passes")
		}
		if t.unpaired != 0 || len(t.open) != 0 {
			c.fail("registry: %d unpaired cell events, %d cells never finished", t.unpaired, len(t.open))
		}
	}
	fp["cells"] = strconv.Itoa(first.cells)
	fp["trials"] = strconv.Itoa(first.trials)
	fp["steps"] = strconv.FormatInt(first.steps, 10)
	fp["rounds"] = strconv.FormatInt(first.rounds, 10)
	fp["silent_illegit"] = strconv.Itoa(first.illegit)
	printFingerprint("registry", fp)

	npass := float64(len(traced))
	for k, v := range cpu {
		m[k] = v / npass
	}
	for i, id := range registryIDs() {
		var xs []float64
		for _, p := range traced {
			xs = append(xs, p.Per[i].Seconds())
		}
		m["experiment."+id+"_s"] = median(xs)
	}
	var busy, wall time.Duration
	var maxes, twalls []float64
	for i, t := range obsv {
		busy += t.busy
		wall += traced[i].Wall
		maxes = append(maxes, ms(t.cellMax))
		twalls = append(twalls, traced[i].Wall.Seconds())
	}
	tunit := median(twalls)
	for k, v := range map[string]float64{
		"engine.cells":           float64(first.cells),
		"engine.trials":          float64(first.trials),
		"engine.busy_frac":       busy.Seconds() / (wall.Seconds() * float64(o.workers)),
		"engine.cell_max_ms":     median(maxes),
		"core.sim_steps":         float64(first.steps),
		"core.sim_rounds":        float64(first.rounds),
		"core.silent_illegit":    float64(first.illegit),
		"bench.untraced_unit_s":  unit,
		"bench.traced_unit_s":    tunit,
		"bench.trace_overhead_s": tunit - unit,
	} {
		m[k] = v
	}
	report("traced wall_s", tunit, "s", fmt.Sprintf("in-process, median of %d traced passes; overhead %+.4f s", len(traced), tunit-unit))
	return m, nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
