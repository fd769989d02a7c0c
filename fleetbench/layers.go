package main

// The traced run's per-layer metrics. Each layer is measured from
// outside: the fleet's counters are scraped around the untraced phase,
// the router hop is timed against direct calls to the ring owner, and
// every pipeline layer is timed by calling its public function in this
// process, inside spans, in the order the server calls them for the
// workload's requests. A layer's share is its part of the summed layer
// time of one request.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"cds"
	"cds/internal/core"
	"cds/internal/extract"
	"cds/internal/serve"
	"cds/internal/sim"
	"cds/internal/spec"
	"cds/internal/stream"
	"cds/internal/trace"
	"cds/internal/verify"
)

// Replay sizes: requests replayed per workload, probe items for the
// layers a workload's own requests do not reach, and rounds of the
// router-versus-owner comparison.
const (
	replayCompare = 96
	replayHits    = 512
	replayStream  = 96
	probeItems    = 16
	forwardRounds = 4
)

// shareLayers are the layers the shares are taken over.
var shareLayers = []string{"cluster", "serve", "spec", "rescache", "extract", "core", "sim", "verify", "stream"}

func simEval(s *core.Schedule) (int, error) {
	r, err := sim.Run(s)
	if err != nil {
		return 0, err
	}
	return r.TotalCycles, nil
}

var schedulers = []struct {
	name  string
	sched core.Scheduler
}{
	{"basic", core.Basic{}},
	{"ds", core.DataScheduler{Eval: simEval}},
	{"cds", core.CompleteDataScheduler{Eval: simEval}},
}

// traceLayers computes every per-layer metric. plain is the untraced
// phase, whose counter deltas give the fleet-side ratios.
func traceLayers(ctx context.Context, f *fleet, w *workload, rec *recorder, plain *measured) (map[string]value, error) {
	out := map[string]value{}
	n := float64(len(plain.results))
	d := plain.delta
	out["serve.shed"] = value{d["shed"], "count"}
	out["rescache.hit_ratio"] = value{ratio(d["hits"], d["hits"]+d["misses"]), "ratio"}
	out["rescache.evictions_per_req"] = value{d["evictions"] / n, "count"}
	out["extract.hit_ratio"] = value{ratio(d["extract_hits"], d["extract_hits"]+d["extract_misses"]), "ratio"}
	out["runtime.alloc_kb_per_req"] = value{d["total_alloc"] / 1024 / n, "KiB"}
	out["runtime.mallocs_per_req"] = value{d["mallocs"] / n, "count"}
	out["runtime.gc_per_kreq"] = value{d["num_gc"] * 1000 / n, "count"}
	out["runtime.gc_pause_ms"] = value{d["pause_ns"] / 1e6, "ms"}
	reused, replanned, memo := streamSplit(plain.results)
	out["stream.reuse_ratio"] = value{ratio(reused, reused+replanned), "ratio"}
	out["stream.memo_segments"] = value{memo, "count"}

	probes := probeSet(w)
	fwd, err := forwardOverhead(ctx, f, probes)
	if err != nil {
		return nil, err
	}
	out["cluster.forward_ms_p50"] = value{fwd, "ms"}
	h := serve.New(serve.Config{}).Handler() // an in-process schedd
	hit, err := hitHandler(h, probes)
	if err != nil {
		return nil, err
	}
	out["serve.hit_handler_us"] = value{hit, "us"}

	first := len(rec.spans)
	reqs, err := replay(ctx, w, rec)
	if err != nil {
		return nil, err
	}
	replayed := append([]span(nil), rec.spans[first:]...)
	if err := probeLayers(ctx, w, probes, rec); err != nil {
		return nil, err
	}
	total, count := selfByName(rec.spans[first:])
	mean := func(name string, perCall int) float64 {
		if count[name] == 0 {
			return 0
		}
		return float64(total[name]) / float64(time.Microsecond) / float64(count[name]) * float64(perCall)
	}
	out["spec.parse_us"] = value{mean("spec.parse", 1), "us"}
	out["rescache.key_us"] = value{mean("rescache.key", 1), "us"}
	out["extract.analyze_us"] = value{mean("extract.analyze", 1), "us"}
	for _, s := range schedulers {
		out["core."+s.name+"_us"] = value{mean("core.schedule."+s.name, 1), "us"}
	}
	out["core.allocate_us"] = value{mean("core.allocate", 1), "us"}
	out["sim.run_us"] = value{mean("sim.run", 1), "us"}
	out["sim.run_stream_us"] = value{mean("sim.run_stream", 2), "us"} // serial + prefetch
	out["verify.schedule_us"] = value{mean("verify.schedule", 1), "us"}
	out["verify.stream_us"] = value{mean("verify.stream", 2), "us"} // both audits
	out["stream.plan_us"] = value{mean("stream.plan", 1), "us"}

	allocs, err := allocCounts(ctx, probes)
	if err != nil {
		return nil, err
	}
	for k, v := range allocs {
		out[k] = value{v, "count"}
	}

	// Shares: the replayed requests' self time per layer, plus the two
	// layers timed from outside — the router hop and serve's own part
	// of a handler call (what its measured inner layers leave over).
	layerUS := map[string]float64{}
	rt, _ := selfByName(replayed)
	for name, d := range rt {
		if l := layerOf(name); l != "request" {
			layerUS[l] += float64(d) / float64(time.Microsecond) / float64(reqs)
		}
	}
	sh, err := streamHandler(ctx, h, w, probes)
	if err != nil {
		return nil, err
	}
	out["serve.stream_handler_us"] = value{sh, "us"}
	if w.name == streamReplan {
		inner := layerUS["stream"] + layerUS["sim"] + layerUS["verify"]
		layerUS["serve"] = max(0, sh-inner)
	} else {
		layerUS["cluster"] = max(0, fwd*1000)
		layerUS["serve"] = max(0, hit-out["spec.parse_us"].Value-out["rescache.key_us"].Value)
	}
	sum := 0.0
	for _, l := range shareLayers {
		sum += layerUS[l]
	}
	for _, l := range shareLayers {
		out[l+".share"] = value{ratio(layerUS[l], sum), "ratio"}
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// streamSplit sums the reuse split over a phase's stream answers and
// returns the memo size the last answer reported (all zero for compare
// workloads).
func streamSplit(rs []result) (reused, replanned, memo float64) {
	for _, r := range rs {
		var a serve.StreamResponse
		if r.status != http.StatusOK || json.Unmarshal(r.body, &a) != nil || a.Segments == nil {
			continue
		}
		reused += float64(a.Reused)
		replanned += float64(a.Replanned)
		memo = float64(a.MemoSegments)
	}
	return reused, replanned, memo
}

// probeSet picks the compare items the outside probes use: the most
// recently measured cold specs (resident on their owners), the top
// cacheable pool ranks, or the stream scenarios' merged specs.
func probeSet(w *workload) []*compareItem {
	var out []*compareItem
	switch w.name {
	case coldSpecs:
		last := w.measured
		if len(w.traced) > 0 {
			last = w.traced
		}
		for _, r := range last[max(0, len(last)-probeItems):] {
			out = append(out, w.items[r.item])
		}
	case zipfHits:
		for i := 0; i < len(w.items) && len(out) < probeItems; i++ {
			if !w.uncached[i] {
				out = append(out, w.items[i])
			}
		}
	case streamReplan:
		out = w.items
	}
	return out
}

// forwardOverhead posts the probe items alternately through the router
// and straight to their ring owner and returns the difference of the
// two p50 latencies in ms. The probes are resident (posted once first),
// so both paths take the cache-hit path and differ only by the hop.
func forwardOverhead(ctx context.Context, f *fleet, probes []*compareItem) (float64, error) {
	var via, direct []time.Duration
	for round := 0; round <= forwardRounds; round++ {
		for _, it := range probes {
			for _, url := range []string{f.routerURL(), f.workerURL(ownerOf(it.fp))} {
				t0 := time.Now()
				status, body, err := post(ctx, url+"/v1/compare", it.body)
				lat := time.Since(t0)
				if err != nil || failedStatus(status) {
					return 0, fmt.Errorf("forward probe: status %d err %v: %.200s", status, err, body)
				}
				if round == 0 {
					continue // makes the probe resident
				}
				if url == f.routerURL() {
					via = append(via, lat)
				} else {
					direct = append(direct, lat)
				}
			}
		}
	}
	return quantile(via, 0.5) - quantile(direct, 0.5), nil
}

// hitHandler times an in-process schedd handler answering the probe
// items from its result cache and returns the mean in µs.
func hitHandler(h http.Handler, probes []*compareItem) (float64, error) {
	prev := cds.SetResultCaching(true)
	defer cds.SetResultCaching(prev)
	call := func(it *compareItem) (int, time.Duration) {
		req := httptest.NewRequest(http.MethodPost, "/v1/compare", strings.NewReader(string(it.body)))
		rr := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rr, req)
		return rr.Code, time.Since(t0)
	}
	var total time.Duration
	calls := 0
	for _, it := range probes {
		if code, _ := call(it); code != http.StatusOK {
			continue // an uncached answer has no hit path
		}
		for i := 0; i < 8; i++ {
			_, d := call(it)
			total += d
			calls++
		}
	}
	if calls == 0 {
		return 0, fmt.Errorf("no probe item has a cache-hit path")
	}
	return float64(total) / float64(time.Microsecond) / float64(calls), nil
}

// streamHandler times an in-process schedd handler planning stream
// bodies and returns the mean in µs. Each prime body is posted first,
// untimed, to warm the handler's planner memo. On stream-replan the
// timed bodies are each scenario's log evolved past every tail sent
// (the memo holds the head); on compare workloads they are the probe
// specs wrapped as one-segment logs, posted again (memo hits).
func streamHandler(ctx context.Context, h http.Handler, w *workload, probes []*compareItem) (float64, error) {
	var prime, timed [][]byte
	if w.name == streamReplan {
		first := streamReplayBase(w) + replayStream
		for c := range w.streams {
			prime = append(prime, w.body(request{item: c, tail: first - 1}))
			for k := first; k < first+replayStream/len(w.streams); k++ {
				timed = append(timed, w.body(request{item: c, tail: k}))
			}
		}
	} else {
		for _, it := range probes {
			var sp spec.Spec
			if err := json.Unmarshal(it.spec, &sp); err != nil {
				return 0, err
			}
			body, err := json.Marshal(struct {
				Log *stream.Log `json:"log"`
			}{stream.FromSpec(&sp, 0)})
			if err != nil {
				return 0, err
			}
			prime, timed = append(prime, body), append(timed, body)
		}
	}
	call := func(body []byte) (int, time.Duration) {
		req := httptest.NewRequest(http.MethodPost, "/v1/stream", strings.NewReader(string(body))).WithContext(ctx)
		rr := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rr, req)
		return rr.Code, time.Since(t0)
	}
	for _, body := range prime {
		call(body) // an unplannable probe answers an error here and below
	}
	var total time.Duration
	calls := 0
	for _, body := range timed {
		if code, d := call(body); code == http.StatusOK {
			total += d
			calls++
		}
	}
	if calls == 0 {
		return 0, fmt.Errorf("no stream body planned in process")
	}
	return float64(total) / float64(time.Microsecond) / float64(calls), nil
}

// streamReplayBase is the first tail counter past every phase's.
func streamReplayBase(w *workload) int {
	k := 0
	for _, ph := range [][]request{w.warm, w.measured, w.traced} {
		for _, r := range ph {
			k = max(k, r.tail+1)
		}
	}
	return k
}

// replay runs the workload's requests through the layers in process, as
// span trees, and returns how many requests it replayed.
func replay(ctx context.Context, w *workload, rec *recorder) (int, error) {
	if w.name == streamReplan {
		return replayStreams(ctx, w, rec)
	}
	limit := replayCompare
	if w.name == zipfHits {
		limit = replayHits
	}
	reqs := 0
	for i := 0; i < len(w.measured) && i < limit; i++ {
		r := w.measured[i]
		it := w.items[r.item]
		miss := w.name == coldSpecs || w.uncached[r.item]
		if err := replayCompare1(ctx, rec, it, miss, i+1); err != nil {
			return 0, err
		}
		reqs++
	}
	return reqs, nil
}

// replayCompare1 replays one /v1/compare request: parse, key and, on a
// miss, the uncached pipeline (analysis, the three schedulers with the
// analysis warm, allocation replay and simulation of each schedule).
func replayCompare1(ctx context.Context, rec *recorder, it *compareItem, miss bool, rid int) error {
	part, pa, err := spec.Parse(it.spec)
	if err != nil {
		return err
	}
	extract.AnalyzeCached(part, extract.Opts{}) // the schedulers run with the analysis warm
	root := rec.begin("request", 0, rid)
	defer rec.end(root)
	rec.timed("spec.parse", root, rid, func() { part, pa, err = spec.Parse(it.spec) })
	if err != nil {
		return err
	}
	rec.timed("rescache.key", root, rid, func() { cds.ComparisonKey(pa, part) })
	if !miss {
		return nil
	}
	rec.timed("extract.analyze", root, rid, func() { extract.Analyze(part) })
	for _, s := range schedulers {
		var sched *core.Schedule
		var serr error
		rec.timed("core.schedule."+s.name, root, rid, func() { sched, serr = s.sched.ScheduleCtx(ctx, pa, part) })
		if serr != nil {
			continue // infeasible: the server stops this scheduler here too
		}
		rec.timed("core.allocate", root, rid, func() { _, serr = core.Allocate(sched, true) })
		if serr != nil {
			continue
		}
		rec.timed("sim.run", root, rid, func() { _, serr = sim.Run(sched) })
	}
	return nil
}

// replayStreams replays /v1/stream requests: each scenario's log
// evolved past every sent tail, planned by a planner whose memo holds
// the head.
func replayStreams(ctx context.Context, w *workload, rec *recorder) (int, error) {
	base := streamReplayBase(w)
	reqs := 0
	for c, cl := range w.streams {
		pl := stream.NewPlanner(0)
		if _, err := pl.Plan(ctx, cl.logAt(base-1)); err != nil {
			return 0, err
		}
		for k := base; k < base+replayStream/len(w.streams); k++ {
			raw, err := json.Marshal(cl.logAt(k))
			if err != nil {
				return 0, err
			}
			reqs++
			if err := replayStream1(ctx, rec, pl, raw, c*1_000_000+k); err != nil {
				return 0, err
			}
		}
	}
	return reqs, nil
}

// replayStream1 replays one /v1/stream request: parse the log, plan it,
// then simulate and audit it serialized and with prefetch.
func replayStream1(ctx context.Context, rec *recorder, pl *stream.Planner, raw []byte, rid int) error {
	root := rec.begin("request", 0, rid)
	defer rec.end(root)
	var lg *stream.Log
	var err error
	rec.timed("stream.parse_log", root, rid, func() { lg, err = stream.ParseLog(raw) })
	if err != nil {
		return err
	}
	var plan *stream.Plan
	rec.timed("stream.plan", root, rid, func() { plan, err = pl.Plan(ctx, lg) })
	if err != nil {
		return err
	}
	for _, prefetch := range []bool{false, true} {
		var res *sim.Result
		var timeline *trace.Timeline
		rec.timed("sim.run_stream", root, rid, func() { res, timeline, err = plan.Trace(prefetch, plan.Name) })
		if err != nil {
			return err
		}
		rec.timed("verify.stream", root, rid, func() { err = verify.StreamTimeline(plan.Schedule, plan.Opts(prefetch), res, timeline) })
		if err != nil {
			return err
		}
	}
	return nil
}

// probeLayers times, outside the replayed requests, every layer on the
// probe items, so each layer has samples on every workload: the uncached
// compare pipeline, the schedule verifier (not on the serve path yet)
// and, for compare workloads, the streaming layers on each probe spec
// wrapped as a one-segment log.
func probeLayers(ctx context.Context, w *workload, probes []*compareItem, rec *recorder) error {
	for i, it := range probes {
		rid := -(i + 1)
		if err := replayCompare1(ctx, rec, it, true, rid); err != nil {
			return err
		}
		part, pa, err := spec.Parse(it.spec)
		if err != nil {
			return err
		}
		s, err := core.CompleteDataScheduler{Eval: simEval}.ScheduleCtx(ctx, pa, part)
		if err != nil {
			continue // an infeasible spec has no schedule to audit
		}
		rec.timed("verify.schedule", 0, rid, func() { err = verify.Schedule(s) })
		if err != nil {
			return fmt.Errorf("verify probe: %w", err)
		}
		if w.name == streamReplan {
			continue
		}
		var sp spec.Spec
		if err := json.Unmarshal(it.spec, &sp); err != nil {
			return err
		}
		lg := stream.FromSpec(&sp, 0)
		pl := stream.NewPlanner(0)
		if _, err := pl.Plan(ctx, lg); err != nil {
			continue
		}
		raw, err := json.Marshal(lg)
		if err != nil {
			return err
		}
		if err := replayStream1(ctx, rec, pl, raw, rid); err != nil {
			return err
		}
	}
	return nil
}

// allocCounts counts heap allocations per call of the layer functions
// that allocate most, over the probe items.
func allocCounts(ctx context.Context, probes []*compareItem) (map[string]float64, error) {
	var parse, sched, alloc []float64
	for _, it := range probes {
		part, pa, err := spec.Parse(it.spec)
		if err != nil {
			return nil, err
		}
		extract.AnalyzeCached(part, extract.Opts{})
		parse = append(parse, allocsPer(func() { spec.Parse(it.spec) }))
		for _, s := range schedulers {
			sc, err := s.sched.ScheduleCtx(ctx, pa, part)
			if err != nil {
				continue
			}
			sched = append(sched, allocsPer(func() { s.sched.ScheduleCtx(ctx, pa, part) }))
			alloc = append(alloc, allocsPer(func() { core.Allocate(sc, true) }))
		}
	}
	return map[string]float64{
		"spec.parse_allocs":    mean(parse),
		"core.schedule_allocs": mean(sched),
		"core.allocate_allocs": mean(alloc),
	}, nil
}

// allocsPer returns the mallocs of one call of f, over a few calls.
func allocsPer(f func()) float64 {
	const calls = 4
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / calls
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
