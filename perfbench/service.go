package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/service"
)

const (
	// servicePairs is a set's number of (fresh spec, re-POST) pairs,
	// split evenly across the clients: 120 cold and 120 warm requests,
	// enough for a p90 with ten samples beyond it in each class.
	servicePairs = 120
	shapesDir    = "examples/campaigns"
)

var seedLine = regexp.MustCompile(`(?m)^seed\s+\d+\s*$`)

// loadShapes reads the example campaigns whose shapes the generated
// specs reuse, in name order.
func loadShapes() ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(shapesDir, "*.campaign"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no campaigns in %s", shapesDir)
	}
	sort.Strings(paths)
	var out []string
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		if len(seedLine.FindAllIndex(b, -1)) != 1 {
			return nil, fmt.Errorf("%s: want exactly one seed line", p)
		}
		out = append(out, string(b))
	}
	return out, nil
}

// svcRequest is one measured request: POST ?stream=1 read to its end,
// then GET /jsonl and /events.
type svcRequest struct {
	cold    bool
	spec    int // index of the client's fresh spec it posts
	latency time.Duration
	// Spans read off the stream, client side.
	submit, queue, exec, render, fetch time.Duration
	streamBytes, streamEvents          int // event lines after the status line
	artifactBytes                      int
	artifacts                          [32]byte
	cells, hits, misses                int
	trials                             int
	steps, rounds, illegit             int64
	ok                                 bool
}

// clientPlan is one client's deterministic request sequence: fresh
// specs interleaved 1:1 with re-POSTs of its own earlier fresh specs.
// The k-th re-POST repeats a random earlier spec of the k-th spec's
// shape, so every seed gives a set with the same cells per shape.
type clientPlan struct {
	specs []string // fresh specs, in posting order
	warm  []int    // warm[k]: which fresh spec the k-th re-POST repeats
}

func makePlans(shapes []string, seed uint64, clients int) []clientPlan {
	plans := make([]clientPlan, clients)
	for ci := range plans {
		r := rand.New(rand.NewPCG(seed, uint64(ci)))
		for k := 0; k < servicePairs/clients; k++ {
			shape := shapes[(k*clients+ci)%len(shapes)]
			s := fmt.Sprintf("seed %d", r.Uint64N(1<<53))
			plans[ci].specs = append(plans[ci].specs, seedLine.ReplaceAllString(shape, s))
			// Specs k and k-len(shapes) share a shape.
			plans[ci].warm = append(plans[ci].warm, k-len(shapes)*r.IntN(k/len(shapes)+1))
		}
	}
	return plans
}

// runClients drives every client's plan against base concurrently and
// returns the requests in plan order (client-major).
func runClients(ctx context.Context, base string, plans []clientPlan) ([][]svcRequest, time.Duration) {
	tr := &http.Transport{MaxIdleConnsPerHost: len(plans), DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	out := make([][]svcRequest, len(plans))
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range plans {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			pprof.Do(ctx, pprof.Labels(clientLabel, strconv.Itoa(ci)), func(context.Context) {
				p := plans[ci]
				for k := range p.specs {
					cold := doRequest(hc, base, p.specs[k])
					cold.cold, cold.spec = true, k
					warm := doRequest(hc, base, p.specs[p.warm[k]])
					warm.spec = p.warm[k]
					out[ci] = append(out[ci], cold, warm)
				}
			})
		}(ci)
	}
	wg.Wait()
	return out, time.Since(start)
}

// doRequest POSTs one spec with ?stream=1, reads the stream to its end,
// then fetches the run's jsonl and events artifacts. ok is false on a
// transport error, a non-2xx status, a truncated stream, or a
// trial-finish count that differs from the cells' reported trials.
func doRequest(hc *http.Client, base, spec string) svcRequest {
	var q svcRequest
	t0 := time.Now()
	resp, err := hc.Post(base+"/v1/runs?stream=1", "text/plain", strings.NewReader(spec))
	if err != nil {
		return q
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return q
	}
	br := bufio.NewReader(resp.Body)
	head, err := br.ReadBytes('\n')
	if err != nil {
		return q
	}
	tHead := time.Now()
	var run struct {
		ID    string `json:"id"`
		Cells int    `json:"cells"`
	}
	if json.Unmarshal(head, &run) != nil || run.ID == "" {
		return q
	}
	q.cells = run.Cells
	var tStart, tFinish time.Time
	cellTrials, truncated := 0, false
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			q.streamBytes += len(line)
			q.streamEvents++
			switch eventKind(line) {
			case "campaign-start":
				tStart = time.Now()
			case "campaign-finish":
				tFinish = time.Now()
			case "cell-finish":
				cellTrials += intField(line, "trials")
			case "trial-finish":
				q.trials++
				q.steps += int64(intField(line, "steps"))
				q.rounds += int64(intField(line, "rounds"))
				if bytes.Contains(line, []byte(`"silent":true`)) && bytes.Contains(line, []byte(`"legit":false`)) {
					q.illegit++
				}
			case "cache-hit":
				q.hits++
			case "cache-miss":
				q.misses++
			case "stream-truncated":
				truncated = true
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return q
		}
	}
	tEOF := time.Now()
	h := sha256.New()
	for _, kind := range []string{"jsonl", "events"} {
		b, ok := get(hc, base+"/v1/runs/"+run.ID+"/"+kind)
		if !ok {
			return q
		}
		q.artifactBytes += len(b)
		fmt.Fprintf(h, "%s %d\n", kind, len(b))
		h.Write(b)
	}
	tEnd := time.Now()
	copy(q.artifacts[:], h.Sum(nil))
	q.latency = tEnd.Sub(t0)
	q.submit = tHead.Sub(t0)
	q.queue = tStart.Sub(tHead)
	q.exec = tFinish.Sub(tStart)
	q.render = tEOF.Sub(tFinish)
	q.fetch = tEnd.Sub(tEOF)
	q.ok = !truncated && !tStart.IsZero() && !tFinish.IsZero() &&
		q.trials == cellTrials && q.hits+q.misses == q.cells
	return q
}

func get(hc *http.Client, url string) ([]byte, bool) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, err == nil && resp.StatusCode/100 == 2
}

// eventKind returns the "ev" value of a stream line.
func eventKind(line []byte) string {
	const pre = `{"ev":"`
	if !bytes.HasPrefix(line, []byte(pre)) {
		return ""
	}
	rest := line[len(pre):]
	if i := bytes.IndexByte(rest, '"'); i >= 0 {
		return string(rest[:i])
	}
	return ""
}

// intField returns the integer value of "key":N in a stream line (0 if
// absent).
func intField(line []byte, key string) int {
	pre := []byte(`"` + key + `":`)
	i := bytes.Index(line, pre)
	if i < 0 {
		return 0
	}
	rest := line[i+len(pre):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, _ := strconv.Atoi(string(rest[:j]))
	return n
}

// checkSet counts one op per request and checks every re-POST against
// the fresh run it repeats: identical artifact bytes, every cell a
// cache hit.
func checkSet(name string, plans [][]svcRequest, c *checks) {
	for ci, reqs := range plans {
		fresh := map[int]svcRequest{}
		for _, q := range reqs {
			ok := q.ok
			if !q.ok {
				c.fail("%s: client %d request for spec %d failed (status, truncated stream or trial count)", name, ci, q.spec)
			}
			if q.cold {
				fresh[q.spec] = q
			} else if f, seen := fresh[q.spec]; !seen || q.artifacts != f.artifacts || q.hits != f.cells || q.misses != 0 {
				ok = false
				c.fail("%s: client %d re-POST of spec %d: artifacts or cache hits differ from its fresh run", name, ci, q.spec)
			}
			c.op(ok)
		}
	}
}

// setTotals are the exact counts of a request set: its fingerprint.
func setTotals(reqs []svcRequest) map[string]string {
	var events, sbytes, abytes, hits, misses, trials int
	var steps, rounds, illegit int64
	for _, q := range reqs {
		events += q.streamEvents
		sbytes += q.streamBytes
		abytes += q.artifactBytes
		hits += q.hits
		misses += q.misses
		trials += q.trials
		steps += q.steps
		rounds += q.rounds
		illegit += q.illegit
	}
	return map[string]string{
		"requests":       strconv.Itoa(len(reqs)),
		"stream_events":  strconv.Itoa(events),
		"stream_bytes":   strconv.Itoa(sbytes),
		"artifact_bytes": strconv.Itoa(abytes),
		"cache_hits":     strconv.Itoa(hits),
		"cache_misses":   strconv.Itoa(misses),
		"trials":         strconv.Itoa(trials),
		"steps":          strconv.FormatInt(steps, 10),
		"rounds":         strconv.FormatInt(rounds, 10),
		"silent_illegit": strconv.FormatInt(illegit, 10),
	}
}

func flatten(plans [][]svcRequest) []svcRequest {
	var out []svcRequest
	for _, p := range plans {
		out = append(out, p...)
	}
	return out
}

// latencies returns the cold or warm request latencies in ms.
func latencies(reqs []svcRequest, cold bool) []float64 {
	var out []float64
	for _, q := range reqs {
		if q.cold == cold && q.ok {
			out = append(out, ms(q.latency))
		}
	}
	return out
}

// daemon is a running sscampaignd child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr chan struct{} // closed once the stderr drain ends
}

// startDaemon starts the daemon on a free loopback port with its
// in-memory cache and returns once /v1/healthz answers.
func startDaemon(bin string, workers int) (*daemon, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, stderr: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.stderr)
		sc := bufio.NewScanner(pipe)
		const pre = "sscampaignd: listening on http://"
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, pre) {
				addrc <- strings.TrimPrefix(line, pre)
			} else {
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}()
	select {
	case d.addr = <-addrc:
	case <-d.stderr:
		d.stop()
		return nil, 0, errors.New("sscampaignd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, errors.New("sscampaignd did not start listening within 30s")
	}
	for {
		if _, ok := get(http.DefaultClient, "http://"+d.addr+"/v1/healthz"); ok {
			break
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("sscampaignd healthz did not answer within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(t0), nil
}

// stop sends SIGTERM (the daemon drains and exits) and waits for the
// process; it kills it if the drain takes longer than ten seconds.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-d.stderr
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("sscampaignd did not drain within 10s; killed")
	}
}

func (d *daemon) status(field string) (float64, error) {
	return procStatus(strconv.Itoa(d.cmd.Process.Pid), field)
}

// timingBackend wraps the service's cache backend, timing every Load and
// Store and counting hits (Load found an entry) and misses.
type timingBackend struct {
	inner        campaign.Backend
	mu           sync.Mutex
	load, store  time.Duration
	hits, misses int
}

func (b *timingBackend) Load(hash string) ([]byte, error) {
	t := time.Now()
	data, err := b.inner.Load(hash)
	d := time.Since(t)
	b.mu.Lock()
	b.load += d
	if data != nil {
		b.hits++
	} else {
		b.misses++
	}
	b.mu.Unlock()
	return data, err
}

func (b *timingBackend) Store(hash string, data []byte) error {
	t := time.Now()
	err := b.inner.Store(hash, data)
	d := time.Since(t)
	b.mu.Lock()
	b.store += d
	b.mu.Unlock()
	return err
}

func (b *timingBackend) Stats() (int, int64, error) { return b.inner.Stats() }

// setResult is one request set served by one fresh server and cache.
type setResult struct {
	reqs           [][]svcRequest
	wall, setup    time.Duration
	cpu            time.Duration // daemon user + system time, start to exit
	peakKB         float64       // daemon VmHWM
	rssKB0, rssKB1 float64       // daemon VmRSS before and after the set
}

// daemonSet starts a fresh daemon (empty cache), runs the request set
// against it, and stops it.
func daemonSet(o options, plans []clientPlan) (*setResult, error) {
	d, setup, err := startDaemon(o.daemon, o.workers)
	if err != nil {
		return nil, err
	}
	r := &setResult{setup: setup}
	r.rssKB0, err = d.status("VmRSS")
	if err != nil {
		d.stop()
		return nil, err
	}
	r.reqs, r.wall = runClients(context.Background(), "http://"+d.addr, plans)
	var err1, err2 error
	r.peakKB, err1 = d.status("VmHWM")
	r.rssKB1, err2 = d.status("VmRSS")
	if err := errors.Join(err1, err2, d.stop()); err != nil {
		return nil, err
	}
	r.cpu = d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime()
	return r, nil
}

// inprocSet serves the request set from service.New hosted in this
// process, over a timing wrapper of the daemon's default in-memory
// cache backend, under a CPU profile.
func inprocSet(o options, plans []clientPlan) (*setResult, *timingBackend, []sample, error) {
	be := &timingBackend{inner: campaign.NewMemBackend()}
	svc := service.New(service.Config{Cache: be, Workers: o.workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, nil, err
	}
	r := &setResult{}
	r.reqs, r.wall = runClients(context.Background(), "http://"+ln.Addr().String(), plans)
	pprof.StopCPUProfile()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := errors.Join(svc.Shutdown(ctx), srv.Shutdown(ctx)); err != nil {
		return nil, nil, nil, err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return nil, nil, nil, err
	}
	samples, err := parseProfile(prof.Bytes())
	return r, be, samples, err
}

// runService measures the service workload: the same request set is
// served by fresh sscampaignd processes, one per set, until the time
// budget is spent; set-up is each daemon's start. A traced run
// alternates those sets with sets served by service.New hosted
// in-process under a CPU profile and a timing cache backend.
func runService(o options, c *checks) (map[string]float64, error) {
	shapes, err := loadShapes()
	if err != nil {
		return nil, err
	}
	plans := makePlans(shapes, o.seed, o.workers)
	var (
		dsets, tsets []*setResult
		backends     []*timingBackend
		samples      []sample
	)
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for {
		s, err := daemonSet(o, plans)
		if err != nil {
			return nil, err
		}
		dsets = append(dsets, s)
		if o.trace {
			t, be, smp, err := inprocSet(o, plans)
			if err != nil {
				return nil, err
			}
			tsets = append(tsets, t)
			backends = append(backends, be)
			samples = append(samples, smp...)
		}
		if time.Since(start) >= budget && len(dsets) >= 3 {
			break
		}
	}

	var fp map[string]string
	for i, s := range append(append([]*setResult{}, dsets...), tsets...) {
		name := "service"
		if i >= len(dsets) {
			name = "service(traced)"
		}
		checkSet(name, s.reqs, c)
		sfp := setTotals(flatten(s.reqs))
		if fp == nil {
			fp = sfp
			continue
		}
		for k, v := range fp {
			if sfp[k] != v {
				c.fail("%s: set %d has %s=%s, the first set %s", name, i, k, sfp[k], v)
			}
		}
	}

	var setups, walls, cpus, peaks, retention []float64
	var all []svcRequest
	for _, s := range dsets {
		setups = append(setups, s.setup.Seconds())
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		peaks = append(peaks, s.peakKB/1024)
		reqs := flatten(s.reqs)
		retention = append(retention, (s.rssKB1-s.rssKB0)/float64(len(reqs)))
		all = append(all, reqs...)
	}
	cold, warm := latencies(all, true), latencies(all, false)
	lat := map[string]float64{}
	for _, x := range []struct {
		name string
		xs   []float64
	}{{"cold", cold}, {"warm", warm}} {
		for _, q := range []int{50, 90} {
			v, err := percentile(x.xs, q)
			if err != nil {
				return nil, fmt.Errorf("%s latency: %w", x.name, err)
			}
			lat[fmt.Sprintf("service.%s_p%d_ms", x.name, q)] = v
		}
	}
	unit := median(walls)
	perSet := len(flatten(dsets[0].reqs))
	runsPerS := float64(perSet) / unit

	fmt.Printf("service: sscampaignd over loopback, in-memory cache, %d closed-loop clients, "+
		"%d sets of %d requests (half fresh specs, half re-POSTs), seed %d\n",
		o.workers, len(dsets), perSet, o.seed)
	report("setup_s", median(setups), "s", fmt.Sprintf("daemon start to healthz, median of %d", len(setups)))
	report("wall_s", unit, "s", "request set, median over sets")
	report("unit_cpu_s", median(cpus), "s", "daemon user + system time per set, median")
	report("runs_per_s", runsPerS, "1/s", "")
	for _, k := range []string{"cold_p50_ms", "cold_p90_ms", "warm_p50_ms", "warm_p90_ms"} {
		n := len(cold)
		if strings.HasPrefix(k, "warm") {
			n = len(warm)
		}
		tl, _ := tailLevel(n)
		report(k, lat["service."+k], "ms", fmt.Sprintf("n=%d; highest percentile with %d beyond: p%d", n, minBeyond, tl))
	}
	report("peak_rss_mb", median(peaks), "MB", "daemon VmHWM, median over sets")
	printFingerprint("service", fp)

	m := map[string]float64{"unit_s": unit, "unit_cpu_s": median(cpus), "setup_s": median(setups), "peak_rss_mb": median(peaks)}
	if !o.trace {
		return m, nil
	}

	for k, v := range attribute(samples) {
		m[k] = v / float64(len(tsets))
	}
	for k, v := range lat {
		m[k] = v
	}
	var tall []svcRequest
	var load, store time.Duration
	var twalls []float64
	for i, s := range tsets {
		reqs := flatten(s.reqs)
		tall = append(tall, reqs...)
		twalls = append(twalls, s.wall.Seconds())
		be := backends[i]
		load += be.load
		store += be.store
		if strconv.Itoa(be.hits) != fp["cache_hits"] || strconv.Itoa(be.misses) != fp["cache_misses"] {
			c.fail("service: backend saw %d hits / %d misses, the streams %s / %s",
				be.hits, be.misses, fp["cache_hits"], fp["cache_misses"])
		}
	}
	nreq := float64(len(tall))
	mean := func(f func(svcRequest) time.Duration) float64 {
		var s time.Duration
		for _, q := range tall {
			s += f(q)
		}
		return ms(s) / nreq
	}
	count := func(k string) float64 { v, _ := strconv.Atoi(fp[k]); return float64(v) }
	var cells int
	for _, q := range flatten(tsets[0].reqs) {
		cells += q.cells
	}
	tunit := median(twalls)
	for k, v := range map[string]float64{
		"service.submit_ms":       mean(func(q svcRequest) time.Duration { return q.submit }),
		"service.queue_wait_ms":   mean(func(q svcRequest) time.Duration { return q.queue }),
		"service.exec_ms":         mean(func(q svcRequest) time.Duration { return q.exec }),
		"service.render_ms":       mean(func(q svcRequest) time.Duration { return q.render }),
		"service.fetch_ms":        mean(func(q svcRequest) time.Duration { return q.fetch }),
		"service.stream_bytes":    count("stream_bytes"),
		"service.artifact_bytes":  count("artifact_bytes"),
		"obs.stream_events":       count("stream_events"),
		"campaign.cache_load_ms":  ms(load) / nreq,
		"campaign.cache_store_ms": ms(store) / nreq,
		"campaign.cache_hits":     count("cache_hits"),
		"campaign.cache_misses":   count("cache_misses"),
		"service.rss_kb_per_run":  median(retention),
		"service.runs_per_s":      runsPerS,
		"engine.cells":            float64(cells),
		"engine.trials":           count("trials"),
		"core.sim_steps":          count("steps"),
		"core.sim_rounds":         count("rounds"),
		"core.silent_illegit":     count("silent_illegit"),
		"bench.untraced_unit_s":   unit,
		"bench.traced_unit_s":     tunit,
		"bench.trace_overhead_s":  tunit - unit,
	} {
		m[k] = v
	}
	report("traced wall_s", tunit, "s", fmt.Sprintf("in-process service.New, median of %d sets; overhead %+.4f s", len(tsets), tunit-unit))
	return m, nil
}
