// Command fleetbench is the repository's end-to-end and per-layer
// benchmark. It brings up the real fleet — one schedrouter and two
// schedd workers, each its own process — drives it with a closed loop
// of two clients for a fixed number of requests, checks every answer
// against a reference computed in-process, and prints the metrics. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (throughput, p50
// and p99 latency, CPU per request, resident memory, set-up time); with
// -trace 1 they are the per-layer ones from a traced run.
//
// Run it from the repository root through its build script:
//
//	bash fleetbench/run.sh --workload cold-specs --seed 1 --seconds 10 --trace 0
//
// Workloads: cold-specs (every spec new: the uncached pipeline),
// zipf-hits (zipf repeats over a resident pool: the cache-hit path) and
// stream-replan (delta replanning of evolving arrival logs).
package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cds"
	"cds/internal/chaos"
	"cds/internal/cluster"
	"cds/internal/daemon"
	"cds/internal/spec"
	"cds/internal/stream"
)

// setupRounds is how many times a run sets the fleet up; setup_s is
// the median, and the last fleet is the one measured.
const setupRounds = 3

func main() {
	if os.Getenv(daemon.ChildEnv) != "" || os.Getenv(cluster.ChildEnv) != "" {
		line, _ := json.Marshal(selfEnv("")) // a fixed struct always marshals
		fmt.Fprintf(os.Stderr, "%s%s\n", childTag, line)
	}
	chaos.MaybeChild()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "cold-specs, zipf-hits or stream-replan")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "nominal run length; sets the fixed request count")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory the span dump is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if _, ok := perSecond[cfg.workload]; !ok || cfg.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "fleetbench: need -workload cold-specs|zipf-hits|stream-replan, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	// A signal cancels the run, so the fleet is still drained and reaped.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	rep, err := bench(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "fleetbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "fleetbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// ownerOf returns the index of the worker that owns a partition
// fingerprint on the fleet's ring, computed the way the router does.
var ownerOf = func() func([32]byte) int {
	ring := cluster.NewRing(cluster.DefaultVnodes, workerIDs...)
	return func(fp [32]byte) int {
		id := ring.Lookup(cluster.CompareKey(fp), 1)[0]
		for i, w := range workerIDs {
			if w == id {
				return i
			}
		}
		panic("ring returned a non-member " + id)
	}
}()

func bench(ctx context.Context, cfg config, stdout io.Writer) (*report, error) {
	loadavg, _ := os.ReadFile("/proc/loadavg") // the header notes it; absence is not an error
	// The oracle and the layer probes run in this process; result
	// caching stays off so the generator does not grow a cache.
	cds.SetResultCaching(false)

	n := perSecond[cfg.workload] * cfg.seconds
	w, err := generate(cfg.workload, cfg.seed, n, cfg.trace)
	if err != nil {
		return nil, err
	}

	var f *fleet
	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		f, err = setUp(ctx, w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.stop() // stopping twice is harmless; this covers the error paths

	env := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"requests": n, "clients": clients, "nproc": runtime.NumCPU(),
		"loadavg":   strings.TrimSpace(string(loadavg)),
		"processes": append([]procEnv{selfEnv("bench")}, f.env()...),
	}
	hdr, _ := json.Marshal(env) // plain values always marshal
	fmt.Fprintf(stdout, "# fleetbench env %s\n", hdr)

	plain, err := measure(ctx, f, w, w.measured, nil)
	if err != nil {
		return nil, err
	}
	var traced *measured
	var rec *recorder
	var layers map[string]value
	if cfg.trace {
		rec = newRecorder()
		if traced, err = measure(ctx, f, w, w.traced, rec); err != nil {
			return nil, err
		}
		if layers, err = traceLayers(ctx, f, w, rec, plain); err != nil {
			return nil, err
		}
	}
	f.stop()

	rep := &report{}
	for _, m := range []*measured{plain, traced} {
		if m == nil {
			continue
		}
		if err := checkPhase(ctx, w, m); err != nil {
			return nil, err
		}
		rep.Attempted += len(m.results)
		rep.Failed += m.failed
	}
	rep.Correct = rep.Failed == 0
	e2e := plain.endToEnd(median(setups))
	fmt.Fprintf(stdout, "# fleetbench %s: %d requests by %d closed-loop clients in %d blocks (%s 1/s), %d failed; latency quantiles over %d samples; setup rounds %s s; host steal %.1f%%\n",
		cfg.workload, len(plain.results), clients, blocks, fmtFloats(plain.blockRPS), plain.failed, plain.latSamples, fmtFloats(setups), plain.stealPct)
	// The tail does not repeat within any usable bound from run to run
	// on a small shared machine, so p99 is reported with the traced
	// run's per-layer metrics rather than gated as an end-to-end one.
	p99 := e2e["latency_p99_ms"]
	delete(e2e, "latency_p99_ms")
	if !cfg.trace {
		rep.Metrics = e2e
		return rep, nil
	}
	layers["latency_p99_ms"] = p99
	tr := traced.endToEnd(median(setups))
	layers["trace.overhead_latency_p50_pct"] = value{pct(tr["latency_p50_ms"].Value, e2e["latency_p50_ms"].Value), "%"}
	layers["trace.overhead_throughput_pct"] = value{pct(e2e["throughput_rps"].Value, tr["throughput_rps"].Value), "%"}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# fleetbench spans: %d written to %s\n", len(rec.spans), path)
	rep.Metrics = layers
	return rep, nil
}

// setUp spawns the fleet and fills every cache to its steady state: the
// set-up time runs from the first spawn to the end of warm-up.
func setUp(ctx context.Context, w *workload) (*fleet, error) {
	f, err := startFleet(ctx)
	if err != nil {
		return nil, err
	}
	warm := drive(ctx, f, w, w.warm, nil, 0)
	for _, r := range warm.results {
		if r.err != nil || failedStatus(r.status) {
			f.stop()
			return nil, fmt.Errorf("set-up request failed: status %d err %v: %.200s", r.status, r.err, r.body)
		}
	}
	if err := steadyState(ctx, f, w, warm); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// blocks is how many equal blocks a timed phase runs in. Each
// end-to-end metric is the median over the blocks, so a burst of
// interference from outside the fleet moves at most a minority of them.
const blocks = 7

// block is one block of a timed phase: results[lo:hi], its wall time
// and the service processes' CPU ticks over it.
type block struct {
	lo, hi int
	wall   time.Duration
	ticks  int64
}

// steadyState fails the run unless set-up left the fleet in the
// workload's steady state.
func steadyState(ctx context.Context, f *fleet, w *workload, warm phase) error {
	switch w.name {
	case coldSpecs:
		cs, err := f.scrape(ctx)
		if err != nil {
			return err
		}
		for i, c := range cs {
			if c["evictions"] <= 0 {
				return fmt.Errorf("steady state: worker %s has not evicted (cache not full)", workerIDs[i])
			}
		}
	case zipfHits:
		for i, it := range w.items {
			if w.uncached[i] {
				continue
			}
			part, pa, err := spec.Parse(it.spec)
			if err != nil {
				return err
			}
			key := cds.ComparisonKey(pa, part)
			url := f.workerURL(ownerOf(it.fp)) + "/v1/cache/" + hex.EncodeToString(key[:])
			if _, err := getText(ctx, url); err != nil {
				return fmt.Errorf("steady state: pool rank %d not resident on its owner: %w", i, err)
			}
		}
	case streamReplan:
		_, _, memo := streamSplit(warm.results[len(warm.results)-1:])
		if int(memo) != stream.DefaultMemoSegments {
			return fmt.Errorf("steady state: stream memo holds %v segments, want its bound %d", memo, stream.DefaultMemoSegments)
		}
	}
	return nil
}

// measured is a timed phase with the fleet-side samples around it.
type measured struct {
	results []result
	bad     []bool // set by checkPhase
	blocks  []block
	rssKB   []int64 // summed VmRSS at the end of each block
	delta   counters
	failed  int
	// blockRPS and latSamples record how endToEnd got its figures: the
	// per-block throughputs and the samples the latency quantiles pooled.
	blockRPS   []float64
	latSamples int
	// stealPct is the share of the machine's CPU time the hypervisor
	// stole during the phase: interference the fleet cannot control.
	stealPct float64
}

// measure drives one timed phase block by block, sampling the service
// processes around every block and the workers' counters around the
// whole phase.
func measure(ctx context.Context, f *fleet, w *workload, reqs []request, rec *recorder) (*measured, error) {
	m := &measured{}
	steal0, total0 := hostSteal()
	before, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}
	for b := 0; b < blocks; b++ {
		p0, err := f.sampleProcs()
		if err != nil {
			return nil, err
		}
		ph := drive(ctx, f, w, reqs[len(reqs)*b/blocks:len(reqs)*(b+1)/blocks], rec, len(m.results))
		p1, err := f.sampleProcs()
		if err != nil {
			return nil, err
		}
		m.blocks = append(m.blocks, block{lo: len(m.results), hi: len(m.results) + len(ph.results), wall: ph.wall, ticks: p1.ticks - p0.ticks})
		m.results = append(m.results, ph.results...)
		m.rssKB = append(m.rssKB, p1.rssKB)
	}
	after, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}
	m.delta = delta(before, after)
	steal1, total1 := hostSteal()
	m.stealPct = 100 * ratio(float64(steal1-steal0), float64(total1-total0))
	return m, nil
}

// hostSteal reads the machine's CPU time stolen by the hypervisor and
// its total CPU time, in ticks, from /proc/stat (zeros if unreadable).
func hostSteal() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

// endToEnd computes the phase's end-to-end metrics. Throughput (correct
// answers only), CPU per request and the resident set at the end of a
// block are medians over the blocks. The
// latency quantiles pool the samples of the middle blocks by throughput
// (all but the fastest and the slowest), which keeps p99 at more than
// ten samples beyond it while a burst of interference in one block is
// dropped.
func (m *measured) endToEnd(setup float64) map[string]value {
	var rps, cpu, rss []float64
	for i, b := range m.blocks {
		ok := 0
		for i := b.lo; i < b.hi; i++ {
			if !m.bad[i] {
				ok++
			}
		}
		rps = append(rps, float64(ok)/b.wall.Seconds())
		cpu = append(cpu, float64(b.ticks)*1000/clockTicks/float64(b.hi-b.lo))
		rss = append(rss, float64(m.rssKB[i])/1024)
	}
	order := make([]int, len(m.blocks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return rps[order[a]] < rps[order[b]] })
	var lats []time.Duration
	for _, i := range order[1 : len(order)-1] {
		lats = append(lats, latencies(m.results[m.blocks[i].lo:m.blocks[i].hi])...)
	}
	m.blockRPS, m.latSamples = rps, len(lats)
	return map[string]value{
		"throughput_rps": {median(rps), "1/s"},
		"latency_p50_ms": {quantile(lats, 0.50), "ms"},
		"latency_p99_ms": {quantile(lats, 0.99), "ms"},
		"cpu_ms_per_req": {median(cpu), "ms"},
		"rss_mb":         {median(rss), "MB"},
		"setup_s":        {setup, "s"},
	}
}

// checkPhase runs the oracle over every answer of a phase and counts
// the failures: transport errors, 5xx, 429 and mismatches.
func checkPhase(ctx context.Context, w *workload, m *measured) error {
	why := make([]error, len(m.results))
	if w.name == streamReplan {
		if err := checkStreamPhase(ctx, w, m, why); err != nil {
			return err
		}
	} else {
		want, err := compareRefs(ctx, w, m.results)
		if err != nil {
			return err
		}
		for i, r := range m.results {
			why[i] = checkCompare(want[r.req.item], r.status, r.body)
		}
	}
	m.bad = make([]bool, len(m.results))
	for i, r := range m.results {
		if r.err != nil {
			why[i] = r.err
		}
		if why[i] == nil {
			continue
		}
		if m.failed == 0 {
			fmt.Fprintf(os.Stderr, "fleetbench: first failed answer (request %d): %v: %.300s\n", i, why[i], r.body)
		}
		m.bad[i] = true
		m.failed++
	}
	return nil
}

// compareRefs computes the reference answer of every item the results
// touch, on as many goroutines as the machine has CPUs.
func compareRefs(ctx context.Context, w *workload, rs []result) (map[int]compareWant, error) {
	var items []int
	seen := map[int]bool{}
	for _, r := range rs {
		if !seen[r.req.item] {
			seen[r.req.item] = true
			items = append(items, r.req.item)
		}
	}
	wants := make([]compareWant, len(items))
	errs := make([]error, len(items))
	parallel(len(items), func(i int) {
		wants[i], errs[i] = referenceCompare(ctx, w.items[items[i]].spec)
	})
	out := make(map[int]compareWant, len(items))
	for i, it := range items {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[it] = wants[i]
	}
	return out, nil
}

// checkStreamPhase replays each scenario's requests, in tail order,
// through a reference planner whose memo first sees the request before
// them.
func checkStreamPhase(ctx context.Context, w *workload, m *measured, why []error) error {
	byStream := make([][]int, len(w.streams))
	for i, r := range m.results {
		byStream[r.req.item] = append(byStream[r.req.item], i)
	}
	errs := make([]error, len(w.streams))
	parallel(len(w.streams), func(c int) {
		idx := byStream[c]
		if len(idx) == 0 {
			return
		}
		sort.Slice(idx, func(a, b int) bool { return m.results[idx[a]].req.tail < m.results[idx[b]].req.tail })
		pl := stream.NewPlanner(0)
		if _, errs[c] = pl.Plan(ctx, w.streams[c].logAt(m.results[idx[0]].req.tail-1)); errs[c] != nil {
			return
		}
		for _, i := range idx {
			r := m.results[i]
			want, err := referenceStream(ctx, pl, w.streams[c].logAt(r.req.tail))
			if err != nil {
				errs[c] = err
				return
			}
			why[i] = checkStream(want, r.status, r.body)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parallel runs f(0..n-1) on runtime.NumCPU goroutines and waits.
func parallel(n int, f func(int)) {
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				j := i
				i++
				next.Unlock()
				if j >= n {
					return
				}
				f(j)
			}
		}()
	}
	wg.Wait()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// pct is how much larger a is than b, in percent of b.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a - b) / b * 100
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
