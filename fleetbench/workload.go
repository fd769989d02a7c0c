package main

// Workload generation. Every input is a pure function of (workload,
// seed, request count): the fleet receives only the generated bodies,
// and the same seed replays the same bodies in the same order.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"cds"
	"cds/internal/spec"
	"cds/internal/stream"
	"cds/internal/workloads"
)

// clients is the closed loop's width: two callers that each wait for
// their answer before sending again, matching schedd's real callers.
const clients = 2

// The three workloads.
const (
	coldSpecs    = "cold-specs"
	zipfHits     = "zipf-hits"
	streamReplan = "stream-replan"
)

// perSecond converts the run length into the fixed request count of a
// measured phase: the count, not the clock, ends a phase, so caches,
// heaps and breakers end every run in the same state. The rates are
// roughly what the fleet sustains on a 2-vCPU machine.
var perSecond = map[string]int{coldSpecs: 300, zipfHits: 2250, streamReplan: 900}

// Generation constants. Index ranges of the corpus streams are disjoint
// between phases, so a measured cold spec is never one set-up posted.
const (
	warmOwnedSpecs  = 560     // cold-specs set-up: distinct specs per worker (> the 512-entry cache)
	coldMeasureBase = 1 << 20 // cold-specs: first measured GenSpec index
	poolSize        = 256     // zipf-hits: distinct bodies
	poolBase        = 1 << 24 // zipf-hits: first pool candidate index
	zipfS           = 1.1     // zipf-hits: skew
	zipfWarmDraws   = 1024    // zipf-hits: set-up draws after the pool pass (fills the idempotency stores)
	streamSegments  = 15      // stream-replan: segments per scenario
	streamCount     = 8       // stream-replan: scenarios in flight
	streamWarm      = 48      // stream-replan: set-up requests per scenario (8x48 > the 256-segment memo)
	tailSentinel    = 1 << 30 // placeholder the tail mutation is spliced over
	tracedShare     = 3       // the traced phase is 1/tracedShare of the measured one
)

// streamSpans bounds the prefetching timeline of a stream-replan
// scenario (inclusive).
var streamSpans = [2]int{250, 350}

// uncachedRanks are the zipf ranks (0-based) of the pool entries whose
// comparison is never cached (infeasible or degraded answers recompute
// on every request). Their count and ranks are fixed, so the share of
// requests that recompute does not swing with the seed.
var uncachedRanks = []int{31, 63, 127, 255}

// request is one call of a workload.
type request struct {
	worker int // -1: through the router; else that worker directly
	item   int // compare: index into workload.items; stream: index into workload.streams
	tail   int // stream: the tail mutation counter
}

// compareItem is one distinct /v1/compare body.
type compareItem struct {
	body []byte   // {"spec": ...}
	spec []byte   // the spec document alone
	fp   [32]byte // partition fingerprint (the routing key)
}

// scenario is one evolving arrival stream: its log, plus the request
// body as a template around the tail segment's first kernel's compute
// cycles, which every request sets to a value never sent before.
type scenario struct {
	log            *stream.Log
	base           int // the tail kernel's generated compute cycles
	prefix, suffix []byte
}

// tailCycles is the value request k writes into the tail segment.
func (c *scenario) tailCycles(k int) int { return c.base + 1 + k }

// workload is a generated request set.
type workload struct {
	name    string
	seed    int64
	items   []*compareItem
	streams []*scenario
	// warm is the set-up traffic; measured and traced are the timed
	// phases of the untraced and the traced pass. The clients take
	// requests from each list in order.
	warm, measured, traced []request
	tracedN                int
	// uncached marks items whose comparison the fleet never caches.
	uncached map[int]bool
}

func (w *workload) path() string {
	if w.name == streamReplan {
		return "/v1/stream"
	}
	return "/v1/compare"
}

// body renders a request's HTTP body.
func (w *workload) body(r request) []byte {
	if w.name != streamReplan {
		return w.items[r.item].body
	}
	c := w.streams[r.item]
	b := make([]byte, 0, len(c.prefix)+len(c.suffix)+12)
	b = append(b, c.prefix...)
	b = strconv.AppendInt(b, int64(c.tailCycles(r.tail)), 10)
	return append(b, c.suffix...)
}

// generate builds the workload's inputs for a measured phase of n
// requests, and for a traced phase of tracedShare of that when traced is
// set (it only has to show the tracing overhead).
func generate(name string, seed int64, n int, traced bool) (*workload, error) {
	w := &workload{name: name, seed: seed, uncached: map[int]bool{}}
	if traced {
		w.tracedN = n / tracedShare
	}
	var err error
	switch name {
	case coldSpecs:
		err = w.genCold(n)
	case zipfHits:
		err = w.genZipf(n)
	case streamReplan:
		err = w.genStream(n)
	default:
		err = fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, coldSpecs, zipfHits, streamReplan)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

func newItem(sp *spec.Spec) (*compareItem, error) {
	raw, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(struct {
		Spec json.RawMessage `json:"spec"`
	}{raw})
	if err != nil {
		return nil, err
	}
	part, _, err := spec.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("spec %s: %w", sp.Name, err)
	}
	return &compareItem{body: body, spec: raw, fp: part.Fingerprint()}, nil
}

// genCold: every request posts a spec the fleet has never seen. Set-up
// posts distinct specs until each worker owns more than its cache holds,
// so both caches are full and evicting before the clock starts.
func (w *workload) genCold(n int) error {
	owned := make([]int, len(workerIDs))
	var warm []request
	for i := 0; ; i++ {
		done := true
		for _, c := range owned {
			done = done && c >= warmOwnedSpecs
		}
		if done {
			break
		}
		it, err := newItem(workloads.GenSpec(w.seed, i))
		if err != nil {
			return err
		}
		owned[ownerOf(it.fp)]++
		w.items = append(w.items, it)
		warm = append(warm, request{worker: -1, item: len(w.items) - 1})
	}
	w.warm = warm
	phase := func(first, count int) ([]request, error) {
		var out []request
		for i := 0; i < count; i++ {
			it, err := newItem(workloads.GenSpec(w.seed, first+i))
			if err != nil {
				return nil, err
			}
			w.items = append(w.items, it)
			out = append(out, request{worker: -1, item: len(w.items) - 1})
		}
		return out, nil
	}
	var err error
	if w.measured, err = phase(coldMeasureBase, n); err != nil {
		return err
	}
	w.traced, err = phase(coldMeasureBase+n, w.tracedN)
	return err
}

// genZipf draws requests zipf(s) over a pool of poolSize bodies. Pool
// ranks are assigned so the seed moves the bodies but not the cost mix:
// cacheable bodies sorted by size are dealt from the median outwards
// (the heavily drawn top ranks get typical bodies, not the seed's
// largest or smallest), and exactly len(uncachedRanks) uncached bodies
// sit at fixed ranks.
func (w *workload) genZipf(n int) error {
	ctx := context.Background()
	var cacheable, uncached []*compareItem
	for k := 0; len(cacheable) < poolSize-len(uncachedRanks) || len(uncached) < len(uncachedRanks); k++ {
		if k > 64*poolSize {
			return fmt.Errorf("seed %d: no pool of %d cacheable and %d uncached specs", w.seed, poolSize-len(uncachedRanks), len(uncachedRanks))
		}
		sp := workloads.GenSpec(w.seed, poolBase+k)
		it, err := newItem(sp)
		if err != nil {
			return err
		}
		part, pa, err := spec.Parse(it.spec)
		if err != nil {
			return err
		}
		cmp, err := cds.CompareAllCtx(ctx, pa, part)
		switch {
		case err == nil && len(cacheable) < poolSize-len(uncachedRanks):
			cacheable = append(cacheable, it)
		case err != nil && cmp != nil && len(uncached) < len(uncachedRanks):
			uncached = append(uncached, it)
		}
	}
	sort.SliceStable(cacheable, func(a, b int) bool { return len(cacheable[a].body) < len(cacheable[b].body) })
	cacheable = medianOut(cacheable)
	w.items = make([]*compareItem, 0, poolSize)
	for rank := 0; rank < poolSize; rank++ {
		if len(uncached) > 0 && rank == uncachedRanks[len(uncachedRanks)-len(uncached)] {
			w.uncached[rank] = true
			w.items, uncached = append(w.items, uncached[0]), uncached[1:]
			continue
		}
		w.items, cacheable = append(w.items, cacheable[0]), cacheable[1:]
	}
	draws := func(stream int64, count int) []request {
		z := rand.NewZipf(rand.New(rand.NewSource(w.seed*1_000_003+stream)), zipfS, 1, poolSize-1)
		out := make([]request, count)
		for i := range out {
			out[i] = request{worker: -1, item: int(z.Uint64())}
		}
		return out
	}
	warm := make([]request, 0, poolSize+zipfWarmDraws)
	for i := range w.items {
		warm = append(warm, request{worker: -1, item: i})
	}
	w.warm = append(warm, draws(1, zipfWarmDraws)...)
	w.measured = draws(2, n)
	w.traced = draws(3, w.tracedN)
	return nil
}

// medianOut reorders a sorted slice as median, then alternately one
// below and one above, moving outwards.
func medianOut[T any](s []T) []T {
	out := make([]T, 0, len(s))
	m := len(s) / 2
	out = append(out, s[m])
	for d := 1; len(out) < len(s); d++ {
		if m-d >= 0 {
			out = append(out, s[m-d])
		}
		if m+d < len(s) {
			out = append(out, s[m+d])
		}
	}
	return out
}

// genStream follows streamCount arrival scenarios of streamSegments
// segments, posted straight to worker w0 (the router has no stream
// route). Request k of a scenario rewrites the tail segment's first
// kernel to a compute cost never sent before: the memo reuses the head,
// CDS replans the tail, and the memo takes a write per request. The
// requests go round-robin over the scenarios, so every scenario
// advances at the same pace and no head ages out of the memo.
//
// A scenario's cost is dominated by simulating and auditing its whole
// stitched plan, which grows with the plan's timeline. Only scenarios
// whose prefetching timeline has streamSpans spans are taken, and the
// cost is averaged over streamCount of them, so the seed picks the
// content but not the size of the work.
func (w *workload) genStream(n int) error {
	ctx := context.Background()
	for idx := 0; len(w.streams) < streamCount; idx++ {
		if idx > 1<<16 {
			return fmt.Errorf("seed %d: fewer than %d plannable %d-segment scenarios of %d-%d spans",
				w.seed, streamCount, streamSegments, streamSpans[0], streamSpans[1])
		}
		a := workloads.GenArrivals(w.seed, idx)
		if len(a.SegClusters) != streamSegments {
			continue
		}
		lg, err := stream.Split(a.Spec, a.SegClusters, a.ArriveAt)
		if err != nil {
			continue
		}
		plan, err := stream.NewPlanner(0).Plan(ctx, lg)
		if err != nil {
			continue // an unschedulable segment would fail every request
		}
		_, tl, err := plan.Trace(true, lg.Name)
		if err != nil || len(tl.Spans) < streamSpans[0] || len(tl.Spans) > streamSpans[1] {
			continue
		}
		c, err := newScenario(lg)
		if err != nil {
			return err
		}
		it, err := newItem(a.Spec) // the merged spec probes the compare layers
		if err != nil {
			return err
		}
		w.streams = append(w.streams, c)
		w.items = append(w.items, it)
	}
	per := (n + streamCount - 1) / streamCount
	rounds := func(first, count int) []request {
		var out []request
		for k := first; k < first+count; k++ {
			for c := range w.streams {
				out = append(out, request{worker: 0, item: c, tail: k})
			}
		}
		return out
	}
	w.warm = rounds(0, streamWarm)
	w.measured = rounds(streamWarm, per)
	w.traced = rounds(streamWarm+per, w.tracedN/streamCount)
	return nil
}

func newScenario(lg *stream.Log) (*scenario, error) {
	tail := &lg.Segments[len(lg.Segments)-1].Kernels[0]
	c := &scenario{log: lg, base: tail.ComputeCycles}
	tail.ComputeCycles = tailSentinel
	body, err := json.Marshal(struct {
		Log *stream.Log `json:"log"`
	}{lg})
	tail.ComputeCycles = c.base
	if err != nil {
		return nil, err
	}
	mark := []byte(`"computeCycles":` + strconv.Itoa(tailSentinel))
	if bytes.Count(body, mark) != 1 {
		return nil, fmt.Errorf("scenario %s: tail placeholder not unique", lg.Name)
	}
	at := bytes.Index(body, mark) + len(mark) - len(strconv.Itoa(tailSentinel))
	c.prefix = body[:at]
	c.suffix = body[at+len(strconv.Itoa(tailSentinel)):]
	return c, nil
}

// logAt returns the scenario's log as request k sends it (a copy; the
// scenario's own log keeps the generated tail).
func (c *scenario) logAt(k int) *stream.Log {
	lg := *c.log
	lg.Segments = append([]stream.Segment(nil), c.log.Segments...)
	tail := &lg.Segments[len(lg.Segments)-1]
	tail.Kernels = append(tail.Kernels[:0:0], tail.Kernels...)
	tail.Kernels[0].ComputeCycles = c.tailCycles(k)
	return &lg
}
