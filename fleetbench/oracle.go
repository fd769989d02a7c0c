package main

// The correctness oracle. Every answer's reference is computed in the
// benchmark process after the timed phases, with result caching off so
// the generator's heap does not grow a comparison cache of its own.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"cds"
	"cds/internal/scherr"
	"cds/internal/serve"
	"cds/internal/spec"
	"cds/internal/stream"
)

// compareWant is the part of a /v1/compare answer the oracle checks.
type compareWant struct {
	status        int
	cycles        [3]int // basic, ds, cds total_cycles
	rf, dtBytes   int
	basicFeasible bool
}

// statusOf maps a deterministic pipeline error to the status schedd
// answers it with.
func statusOf(err error) int {
	switch {
	case errors.Is(err, scherr.ErrInfeasible):
		return http.StatusUnprocessableEntity
	case errors.Is(err, scherr.ErrInvalidSpec):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// wantCompare derives the expected answer from a reference comparison:
// an error with no usable result is an error answer, anything else is a
// 200 carrying the surviving schedulers' numbers.
func wantCompare(cmp *cds.Comparison, err error) compareWant {
	if err != nil && (cmp == nil || !cmp.Usable()) {
		return compareWant{status: statusOf(err)}
	}
	w := compareWant{status: http.StatusOK, rf: cmp.RF, dtBytes: cmp.DTBytes, basicFeasible: cmp.BasicErr == nil}
	for i, r := range []*cds.Result{cmp.Basic, cmp.DS, cmp.CDS} {
		if r != nil && r.Timing != nil {
			w.cycles[i] = r.Timing.TotalCycles
		}
	}
	return w
}

// referenceCompare computes the expected answer for a spec document.
func referenceCompare(ctx context.Context, raw []byte) (compareWant, error) {
	part, pa, err := spec.Parse(raw)
	if err != nil {
		return compareWant{status: statusOf(err)}, nil
	}
	cmp, err := cds.CompareAllCtx(ctx, pa, part)
	if err != nil && errors.Is(err, scherr.ErrCanceled) {
		return compareWant{}, err
	}
	return wantCompare(cmp, err), nil
}

// failedStatus reports whether a status is a failure whatever the
// reference says: overload and server errors never count as answers.
func failedStatus(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// checkCompare reports why an answer differs from its reference (nil
// when it matches).
func checkCompare(want compareWant, status int, body []byte) error {
	if failedStatus(status) || status != want.status {
		return fmt.Errorf("status %d, want %d", status, want.status)
	}
	if status != http.StatusOK {
		return nil // a 422 matches exactly when the reference is infeasible
	}
	var got serve.CompareResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	cycles := [3]int{got.Basic.TotalCycles, got.DS.TotalCycles, got.CDS.TotalCycles}
	switch {
	case cycles != want.cycles:
		return fmt.Errorf("total_cycles basic/ds/cds %v, want %v", cycles, want.cycles)
	case got.RF != want.rf:
		return fmt.Errorf("rf %d, want %d", got.RF, want.rf)
	case got.DTBytes != want.dtBytes:
		return fmt.Errorf("dt_bytes %d, want %d", got.DTBytes, want.dtBytes)
	case got.BasicFeasible != want.basicFeasible:
		return fmt.Errorf("basic_feasible %v, want %v", got.BasicFeasible, want.basicFeasible)
	}
	return nil
}

// streamWant is the part of a /v1/stream answer the oracle checks.
type streamWant struct {
	serial, prefetch  int
	reused, replanned int
}

// referenceStream plans a log with a reference planner and simulates
// it both ways. The planner carries its memo across calls, so the
// reuse split is the one a memo that has seen the same history reports.
func referenceStream(ctx context.Context, pl *stream.Planner, lg *stream.Log) (streamWant, error) {
	plan, err := pl.Plan(ctx, lg)
	if err != nil {
		return streamWant{}, err
	}
	w := streamWant{reused: plan.Reused, replanned: plan.Replanned}
	for _, prefetch := range []bool{false, true} {
		res, err := plan.Run(prefetch)
		if err != nil {
			return streamWant{}, err
		}
		if prefetch {
			w.prefetch = res.TotalCycles
		} else {
			w.serial = res.TotalCycles
		}
	}
	return w, nil
}

// checkStream reports why a stream answer differs from its reference.
func checkStream(want streamWant, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d, want 200", status)
	}
	var got serve.StreamResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	switch {
	case got.SerialCycles != want.serial || got.PrefetchCycles != want.prefetch:
		return fmt.Errorf("serial/prefetch cycles %d/%d, want %d/%d",
			got.SerialCycles, got.PrefetchCycles, want.serial, want.prefetch)
	case got.Reused != want.reused || got.Replanned != want.replanned:
		return fmt.Errorf("reused/replanned %d/%d, want %d/%d",
			got.Reused, got.Replanned, want.reused, want.replanned)
	}
	return nil
}
