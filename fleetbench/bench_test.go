package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"cds"
	"cds/internal/scherr"
	"cds/internal/serve"
	"cds/internal/spec"
	"cds/internal/stream"
	"cds/internal/workloads"
)

// sequence renders a workload's measured requests as the bodies the
// fleet would receive, in order.
func sequence(t *testing.T, name string, seed int64, n int) [][]byte {
	t.Helper()
	w, err := generate(name, seed, n, false)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, r := range w.measured {
		out = append(out, w.body(r))
	}
	return out
}

func TestSeedDeterminesRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("generates full workloads")
	}
	prev := cds.SetResultCaching(false)
	defer cds.SetResultCaching(prev)
	for _, name := range []string{coldSpecs, zipfHits, streamReplan} {
		t.Run(name, func(t *testing.T) {
			a, b := sequence(t, name, 3, 40), sequence(t, name, 3, 40)
			c := sequence(t, name, 4, 40)
			if len(a) != 40 || len(b) != 40 || len(c) != 40 {
				t.Fatalf("sequence lengths %d/%d/%d, want 40", len(a), len(b), len(c))
			}
			same, differ := true, false
			for i := range a {
				same = same && bytes.Equal(a[i], b[i])
				differ = differ || !bytes.Equal(a[i], c[i])
			}
			if !same {
				t.Error("the same seed produced a different request sequence")
			}
			if !differ {
				t.Error("a different seed produced the same request sequence")
			}
		})
	}
}

func TestStreamRequestsChangeOnlyTheTail(t *testing.T) {
	w, err := generate(streamReplan, 1, 2*streamCount, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range w.measured {
		var req struct {
			Log json.RawMessage `json:"log"`
		}
		if err := json.Unmarshal(w.body(r), &req); err != nil {
			t.Fatal(err)
		}
		lg, err := stream.ParseLog(req.Log)
		if err != nil {
			t.Fatal(err)
		}
		if len(lg.Segments) != streamSegments {
			t.Fatalf("log has %d segments, want %d", len(lg.Segments), streamSegments)
		}
		want, _ := json.Marshal(w.streams[r.item].logAt(r.tail))
		got, _ := json.Marshal(lg)
		if !bytes.Equal(got, want) {
			t.Fatalf("scenario %d request %d: body does not decode to the log the oracle plans", r.item, r.tail)
		}
		key := string(got)
		if seen[key] {
			t.Fatalf("scenario %d request %d repeats an earlier log", r.item, r.tail)
		}
		seen[key] = true
	}
}

func TestMedianOut(t *testing.T) {
	got := medianOut([]int{0, 1, 2, 3, 4, 5})
	want := []int{3, 2, 4, 1, 5, 0}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("medianOut = %v, want %v", got, want)
	}
}

// answer renders what schedd would answer for a reference comparison.
func answer(t *testing.T, cmp *cds.Comparison) []byte {
	t.Helper()
	resp := serve.CompareResponse{RF: cmp.RF, DTBytes: cmp.DTBytes, BasicFeasible: cmp.BasicErr == nil}
	for _, p := range []struct {
		out *serve.SchedulerResult
		res *cds.Result
	}{{&resp.Basic, cmp.Basic}, {&resp.DS, cmp.DS}, {&resp.CDS, cmp.CDS}} {
		if p.res != nil {
			p.out.TotalCycles = p.res.Timing.TotalCycles
		}
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOracleRejectsTamperedAnswer(t *testing.T) {
	prev := cds.SetResultCaching(false)
	defer cds.SetResultCaching(prev)
	part, pa, err := spec.Parse(mustMarshal(t, workloads.GenSpec(1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := cds.CompareAll(pa, part)
	if err != nil {
		t.Fatalf("GenSpec(1, 0) should compare cleanly: %v", err)
	}
	want := wantCompare(cmp, nil)
	good := answer(t, cmp)
	if err := checkCompare(want, http.StatusOK, good); err != nil {
		t.Fatalf("oracle rejected the true answer: %v", err)
	}
	var resp serve.CompareResponse
	if err := json.Unmarshal(good, &resp); err != nil {
		t.Fatal(err)
	}
	resp.CDS.TotalCycles++
	tampered, _ := json.Marshal(resp)
	if err := checkCompare(want, http.StatusOK, tampered); err == nil {
		t.Fatal("oracle accepted a CDS cycle count off by one")
	}
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusUnprocessableEntity} {
		if err := checkCompare(want, status, good); err == nil {
			t.Errorf("oracle accepted status %d for a feasible spec", status)
		}
	}
}

func TestOracleAcceptsExpected422(t *testing.T) {
	prev := cds.SetResultCaching(false)
	defer cds.SetResultCaching(prev)
	for i := 0; i < 2000; i++ {
		raw := mustMarshal(t, workloads.GenSpec(1, i))
		want, err := referenceCompare(context.Background(), raw)
		if err != nil {
			t.Fatal(err)
		}
		if want.status != http.StatusUnprocessableEntity {
			continue
		}
		body := []byte(`{"error":"infeasible","class":"infeasible"}`)
		if err := checkCompare(want, http.StatusUnprocessableEntity, body); err != nil {
			t.Fatalf("oracle rejected the expected 422 for GenSpec(1, %d): %v", i, err)
		}
		if err := checkCompare(want, http.StatusOK, body); err == nil {
			t.Fatalf("oracle accepted a 200 for infeasible GenSpec(1, %d)", i)
		}
		return
	}
	t.Fatal("no infeasible spec in the first 2000 of seed 1")
}

func TestOracleRejectsTamperedStreamAnswer(t *testing.T) {
	w, err := generate(streamReplan, 1, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := w.streams[0]
	pl := stream.NewPlanner(0)
	if _, err := pl.Plan(ctx, c.logAt(0)); err != nil {
		t.Fatal(err)
	}
	want, err := referenceStream(ctx, pl, c.logAt(1))
	if err != nil {
		t.Fatal(err)
	}
	if want.reused != streamSegments-1 || want.replanned != 1 {
		t.Fatalf("tail change replanned %d and reused %d segments, want 1 and %d", want.replanned, want.reused, streamSegments-1)
	}
	resp := serve.StreamResponse{Segments: []serve.StreamSegment{{}}, SerialCycles: want.serial,
		PrefetchCycles: want.prefetch, Reused: want.reused, Replanned: want.replanned}
	good, _ := json.Marshal(resp)
	if err := checkStream(want, http.StatusOK, good); err != nil {
		t.Fatalf("oracle rejected the true stream answer: %v", err)
	}
	resp.PrefetchCycles++
	bad, _ := json.Marshal(resp)
	if err := checkStream(want, http.StatusOK, bad); err == nil {
		t.Fatal("oracle accepted a prefetch makespan off by one")
	}
}

func TestStatusOf(t *testing.T) {
	cases := map[error]int{
		fmt.Errorf("x: %w", scherr.ErrInfeasible):  http.StatusUnprocessableEntity,
		fmt.Errorf("x: %w", scherr.ErrInvalidSpec): http.StatusBadRequest,
		errors.New("boom"):                         http.StatusInternalServerError,
	}
	for err, want := range cases {
		if got := statusOf(err); got != want {
			t.Errorf("statusOf(%v) = %d, want %d", err, got, want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "spec.parse", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "core.schedule.cds", Start: 20, End: 60}, // overlaps its sibling
		{ID: 4, Parent: 3, Name: "sim.run", Start: 30, End: 40},
	}
	got := selfTimes(spans)
	want := []time.Duration{50, 20, 30, 10}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	if layerOf("core.schedule.cds") != "core" {
		t.Fatal("layerOf must cut at the first dot")
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, 1)
	r.end(id)
	r.timed("y", 0, 1, func() {})
	rec := newRecorder()
	rec.timed("y", 0, 7, func() {})
	if len(rec.spans) != 1 || rec.spans[0].Req != 7 || rec.spans[0].End < rec.spans[0].Start {
		t.Fatalf("recorded %+v", rec.spans)
	}
}

// The traced phase's clients record spans from several goroutines.
func TestRecorderConcurrent(t *testing.T) {
	rec := newRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root := rec.begin("request", 0, g*1000+i)
				rec.timed("spec.parse", root, g*1000+i, func() {})
				rec.end(root)
			}
		}(g)
	}
	wg.Wait()
	if len(rec.spans) != 4*200*2 {
		t.Fatalf("recorded %d spans, want %d", len(rec.spans), 4*200*2)
	}
	for _, s := range rec.spans {
		if s.End < s.Start {
			t.Fatalf("span %+v never ended", s)
		}
		if s.Parent != 0 && rec.spans[s.Parent-1].Req != s.Req {
			t.Fatalf("span %+v has a parent from another request", s)
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
