package main

// The fleet under test: one schedrouter in front of two schedd workers,
// each a separate process. The benchmark binary re-executes itself as
// every member through the same seams the chaos harness uses
// (daemon.ChildEnv, cluster.ChildEnv), so the processes run the real
// daemon and router code with their production defaults. Separate
// processes matter twice over: in-process servers would share the
// process-global comparison cache (two "workers" would be one cache),
// and the load generator's CPU and heap would be charged to the fleet.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cds/internal/chaos"
	"cds/internal/cluster"
	"cds/internal/daemon"
)

// workerIDs names the fleet's workers; the ring is built from them.
var workerIDs = []string{"w0", "w1"}

// childTag prefixes the environment line each child prints on stderr
// before it starts serving.
const childTag = "fleetbench-child "

// procEnv is one process's line of the environment header.
type procEnv struct {
	Role       string `json:"role"`
	PID        int    `json:"pid"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
}

func selfEnv(role string) procEnv {
	return procEnv{Role: role, PID: os.Getpid(), Go: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
}

// member is one fleet process.
type member struct {
	role  string
	child *chaos.Child
	debug string // -debug-addr of a worker ("" for the router)
}

// fleet is a running router plus workers.
type fleet struct {
	router  member
	workers []member
}

// startFleet spawns the workers, waits until they answer, then spawns
// the router and waits until it routes to every worker.
func startFleet(ctx context.Context) (*fleet, error) {
	f := &fleet{}
	addrs := make([]string, len(workerIDs))
	peers := make([]string, len(workerIDs))
	for i, id := range workerIDs {
		a, err := chaos.FreeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i] = a
		peers[i] = id + "=" + a
	}
	peerList := strings.Join(peers, ",")
	wsup := &chaos.Supervisor{ChildEnvVar: daemon.ChildEnv}
	for i, id := range workerIDs {
		dbg, err := chaos.FreeAddr()
		if err != nil {
			f.stop()
			return nil, err
		}
		c, err := wsup.Start(addrs[i], "-worker-id", id, "-peers", peerList, "-debug-addr", dbg)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, member{role: id, child: c, debug: dbg})
	}
	for _, w := range f.workers {
		if err := w.child.WaitReady(ctx); err != nil {
			f.stop()
			return nil, err
		}
		if err := waitOK(ctx, "http://"+w.debug+"/debug/vars"); err != nil {
			f.stop()
			return nil, err
		}
	}
	raddr, err := chaos.FreeAddr()
	if err != nil {
		f.stop()
		return nil, err
	}
	rsup := &chaos.Supervisor{ChildEnvVar: cluster.ChildEnv}
	rc, err := rsup.Start(raddr, "-workers", peerList)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = member{role: "router", child: rc}
	if err := rc.WaitReady(ctx); err != nil {
		f.stop()
		return nil, err
	}
	if err := waitEligible(ctx, "http://"+raddr+"/v1/ring", len(workerIDs)); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) members() []member {
	out := []member{}
	if f.router.child != nil {
		out = append(out, f.router)
	}
	return append(out, f.workers...)
}

// stop drains every member with SIGTERM and reaps it; a member that does
// not exit within the drain deadline is killed. It returns once every
// process is gone.
func (f *fleet) stop() {
	ms := f.members()
	for _, m := range ms {
		_ = m.child.Term() // an already-exited child is reaped below
	}
	for _, m := range ms {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		if _, err := m.child.WaitExit(ctx); err != nil && !m.child.Exited() {
			m.child.Stop()
		}
		cancel()
	}
}

// routerURL and workerURL address the service listeners.
func (f *fleet) routerURL() string      { return "http://" + f.router.child.Addr }
func (f *fleet) workerURL(i int) string { return "http://" + f.workers[i].child.Addr }

// env collects each member's environment line from its stderr.
func (f *fleet) env() []procEnv {
	var out []procEnv
	for _, m := range f.members() {
		e := procEnv{Role: m.role, PID: m.child.Pid()}
		sc := bufio.NewScanner(strings.NewReader(m.child.Stderr()))
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), childTag); ok {
				_ = json.Unmarshal([]byte(rest), &e) // a garbled line leaves the PID-only row
				e.Role = m.role
				break
			}
		}
		out = append(out, e)
	}
	return out
}

// procSample is the kernel's view of the service processes at one
// instant: CPU ticks (utime+stime) and resident set.
type procSample struct {
	ticks int64
	rssKB int64
}

// sampleProcs sums /proc/<pid>/stat CPU ticks and /proc/<pid>/status
// VmRSS over every member.
func (f *fleet) sampleProcs() (procSample, error) {
	var s procSample
	for _, m := range f.members() {
		pid := m.child.Pid()
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return s, err
		}
		// Fields after the parenthesised command name: state is field 3,
		// utime and stime are fields 14 and 15.
		rest := string(stat[strings.LastIndexByte(string(stat), ')')+2:])
		fields := strings.Fields(rest)
		if len(fields) < 13 {
			return s, fmt.Errorf("short /proc/%d/stat", pid)
		}
		for _, i := range []int{11, 12} {
			v, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				return s, fmt.Errorf("/proc/%d/stat: %w", pid, err)
			}
			s.ticks += v
		}
		status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return s, err
		}
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				if err != nil {
					return s, fmt.Errorf("/proc/%d/status VmRSS: %w", pid, err)
				}
				s.rssKB += kb
			}
		}
	}
	return s, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// counters is one scrape of a worker's counters by name: /metrics for
// the admission and result-cache counters, /debug/vars for the analysis
// cache and the runtime's memstats.
type counters map[string]float64

// delta returns after-before summed over workers.
func delta(before, after []counters) counters {
	out := counters{}
	for i := range after {
		for k, v := range after[i] {
			out[k] += v - before[i][k]
		}
	}
	return out
}

// scrape reads every worker's counters.
func (f *fleet) scrape(ctx context.Context) ([]counters, error) {
	out := make([]counters, len(f.workers))
	for i, w := range f.workers {
		m, err := getText(ctx, f.workerURL(i)+"/metrics")
		if err != nil {
			return nil, err
		}
		cache := `{cache="cds.compare_all"}`
		c := counters{
			"shed":      metric(m, "schedd_shed_total"),
			"hits":      metric(m, "rescache_hits_total"+cache),
			"misses":    metric(m, "rescache_misses_total"+cache),
			"evictions": metric(m, "rescache_evictions_total"+cache),
		}
		var vars struct {
			Extract  map[string]float64 `json:"extract.analysis_cache"`
			Memstats struct {
				TotalAlloc   float64
				Mallocs      float64
				NumGC        float64
				PauseTotalNs float64
			} `json:"memstats"`
		}
		raw, err := getText(ctx, "http://"+w.debug+"/debug/vars")
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal([]byte(raw), &vars); err != nil {
			return nil, fmt.Errorf("worker %s /debug/vars: %w", w.role, err)
		}
		c["extract_hits"], c["extract_misses"] = vars.Extract["hits"], vars.Extract["misses"]
		c["total_alloc"], c["mallocs"] = vars.Memstats.TotalAlloc, vars.Memstats.Mallocs
		c["num_gc"], c["pause_ns"] = vars.Memstats.NumGC, vars.Memstats.PauseTotalNs
		out[i] = c
	}
	return out, nil
}

// metric returns the value of one line of a Prometheus-style text page
// (0 when absent).
func metric(page, name string) float64 {
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

var probeClient = &http.Client{Timeout: 5 * time.Second}

func getText(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}

// waitOK polls url until it answers 200 or ctx expires.
func waitOK(ctx context.Context, url string) error {
	for {
		if _, err := getText(ctx, url); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never answered: %w", url, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// waitEligible polls the router's ring view until n workers route.
func waitEligible(ctx context.Context, url string, n int) error {
	for {
		if raw, err := getText(ctx, url); err == nil {
			var ring struct {
				Eligible int `json:"eligible"`
			}
			if json.Unmarshal([]byte(raw), &ring) == nil && ring.Eligible == n {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("router never saw %d eligible workers: %w", n, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}
