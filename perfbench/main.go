// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload, checks the program's outputs, and prints as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with --trace 1 they are the per-layer ones, from spans the
// benchmark records around public calls into each layer, a timing
// obs.Observer, and a CPU profile bucketed by package. Lines before the
// JSON are a human-readable report, including each workload's
// exact-count fingerprint, which a traced run must reproduce.
//
// Run it through run.sh, which builds it and the campaign daemon:
//
//	bash perfbench/run.sh --workload registry --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each was chosen and what it predicts):
//
//	registry  experiments E1–E21 in-process through experiment.ByID
//	scale     COLORING on a 1000×1000 torus to a legitimate silent configuration
//	service   the sscampaignd daemon over loopback, two closed-loop clients
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	daemon  string // sscampaignd binary
	workers int    // worker goroutines / client connections (nproc)
}

// checks accumulates operations and output-check failures. An op that
// fails is counted; a check that fails also makes the run incorrect.
type checks struct {
	attempted, failed int
	problems          []string
}

// op records one operation's outcome.
func (c *checks) op(ok bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
}

// fail records a failed output check.
func (c *checks) fail(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// endToEnd lists the end-to-end metrics every workload reports with
// tracing off, with their units.
var endToEnd = []struct{ name, unit string }{
	{"unit_s", "s"},
	{"unit_cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

func main() {
	res, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res == nil {
		return // a registry pass child: its JSON line is printed
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(args []string) (*result, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "registry, scale or service")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	daemon := fs.String("daemon", "", "sscampaignd binary (service workload)")
	pass := fs.Bool("registry-pass", false, "run one untraced registry pass and print it as JSON (the registry workload's child processes)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	o := options{
		seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
		daemon: *daemon, workers: runtime.NumCPU(),
	}
	if o.workers > 2 {
		// The workloads are sized for two workers; more would change
		// the traffic rather than measure the same traffic faster.
		o.workers = 2
	}
	if *pass {
		return nil, registryChild(o)
	}
	var (
		m   map[string]float64
		c   checks
		err error
	)
	switch *workload {
	case "registry":
		m, err = runRegistry(o, &c)
	case "scale":
		m, err = runScale(o, &c)
	case "service":
		if o.daemon == "" {
			return nil, errors.New("--daemon is required for the service workload")
		}
		m, err = runService(o, &c)
	default:
		return nil, fmt.Errorf("unknown --workload %q (registry, scale or service)", *workload)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range c.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	res := &result{
		Correct:   len(c.problems) == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	want := endToEnd
	if o.trace {
		want = perLayer()
	}
	for _, w := range want {
		v, ok := m[w.name]
		if !ok {
			if o.trace {
				v = 0 // a layer the workload does not exercise
			} else {
				return nil, fmt.Errorf("workload did not measure %s", w.name)
			}
		}
		res.Metrics[w.name] = metric{Value: v, Unit: w.unit}
	}
	return res, nil
}

// perLayer lists every per-layer metric with its unit. Every traced run
// reports all of them; a layer a workload does not exercise reads 0.
func perLayer() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for i := 1; i <= 21; i++ {
		add("s", fmt.Sprintf("experiment.E%d_s", i))
	}
	add("count", "engine.cells", "engine.trials")
	add("ratio", "engine.busy_frac")
	add("ms", "engine.cell_max_ms")
	add("count", "core.sim_steps", "core.sim_rounds", "core.silent_illegit")
	for _, l := range layers {
		add("s", l+".self_cpu_s")
	}
	for _, e := range entryPoints {
		add("s", e.metric)
	}
	add("s", "graph.torus_s", "engine.system_s", "model.step_s")
	add("ms", "model.step_max_ms")
	add("s", "model.silent_now_s", "trace.report_s")
	add("B", "model.heap_bytes_per_proc")
	add("ms", "service.submit_ms", "service.queue_wait_ms", "service.exec_ms",
		"service.render_ms", "service.fetch_ms")
	add("B", "service.stream_bytes", "service.artifact_bytes")
	add("count", "obs.stream_events")
	add("ms", "campaign.cache_load_ms", "campaign.cache_store_ms")
	add("count", "campaign.cache_hits", "campaign.cache_misses")
	add("kB", "service.rss_kb_per_run")
	add("ms", "service.cold_p50_ms", "service.cold_p90_ms", "service.warm_p50_ms", "service.warm_p90_ms")
	add("1/s", "service.runs_per_s")
	add("s", "bench.untraced_unit_s", "bench.traced_unit_s", "bench.trace_overhead_s")
	return out
}

// cpuTime is this process's user + system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatus reads one kB field (VmHWM, VmRSS) of /proc/<pid>/status.
func procStatus(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("reading %s of process %s: %w", field, pid, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == field+":" {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// report prints a human-readable "name value unit" line.
func report(name string, v float64, unit string, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("%-28s %14.6g %s%s\n", name, v, unit, note)
}

// printFingerprint prints a workload's exact-count fingerprint in a
// fixed key order, so an untraced and a traced run can be compared
// line for line.
func printFingerprint(workload string, fp map[string]string) {
	keys := make([]string, 0, len(fp))
	for k := range fp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, fp[k])
	}
	fmt.Printf("fingerprint %s:%s\n", workload, b.String())
}
