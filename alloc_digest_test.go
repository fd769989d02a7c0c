package cds

// Differential gate for the Frame Buffer allocation replay. Every
// schedule the pipeline builds for the paper's experiments, the
// differential-fuzzing regressions and a GenSpec corpus is replayed
// through core.Allocate, and the full report (every event, the per-set
// peaks, the split count, the regularity verdict and the irregular
// instances) or the failure (taxonomy class and exact text) is hashed.
// The hashes in testdata/alloc_digests.txt were produced by the
// string-keyed replay this gate was written against, so any drift in
// the integer-keyed replay shows up as a named mismatch. The summary
// entry point must agree with the full one on every field it returns.
//
// To regenerate after an intended change to the allocator, delete the
// digest file and run the test once: it writes a fresh file from the
// current code and fails so the new file gets reviewed.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cds/internal/core"
	"cds/internal/scherr"
	"cds/internal/workloads"
)

const (
	allocDigestFile = "testdata/alloc_digests.txt"
	// allocDigestSeed and allocDigestSpecs pick the GenSpec corpus.
	allocDigestSeed  = 13
	allocDigestSpecs = 520
)

type digestCase struct {
	name string
	arch Arch
	part *Part
}

// allocDigestCases lists the paper experiments (with the MPEG memory
// floor), the pinned fuzzing regressions and the GenSpec corpus.
func allocDigestCases(t *testing.T) []digestCase {
	t.Helper()
	var cases []digestCase
	for _, e := range append(workloads.All(), workloads.MPEGFloor()) {
		cases = append(cases, digestCase{"paper/" + e.Name, e.Arch, e.Part})
	}
	for _, sp := range workloads.Regressions() {
		part, pa, err := sp.Build()
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		cases = append(cases, digestCase{sp.Name, pa, part})
	}
	for i := 0; i < allocDigestSpecs; i++ {
		sp := workloads.GenSpec(allocDigestSeed, i)
		part, pa, err := sp.Build()
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		cases = append(cases, digestCase{sp.Name, pa, part})
	}
	return cases
}

// errorClass names the scherr taxonomy class an error matches.
func errorClass(err error) string {
	for _, c := range []struct {
		name  string
		class error
	}{
		{"infeasible", scherr.ErrInfeasible},
		{"invalid", scherr.ErrInvalidSpec},
		{"capacity", scherr.ErrCapacity},
		{"canceled", scherr.ErrCanceled},
		{"internal", scherr.ErrInternal},
	} {
		if errors.Is(err, c.class) {
			return c.name
		}
	}
	return "unclassified"
}

// allocDigest hashes everything a full allocation report carries.
func allocDigest(rep *core.AllocationReport) string {
	h := sha256.New()
	for _, ev := range rep.Events {
		fmt.Fprintf(h, "%s %d %s %s %d %d %t %d %d %d %d\n", ev.Op, ev.Set, ev.Object, ev.Datum,
			ev.Addr, ev.Bytes, ev.Split, ev.Cluster, ev.Block, ev.Iter, ev.Kernel)
	}
	sets := make([]int, 0, len(rep.PeakUsed))
	for set := range rep.PeakUsed {
		sets = append(sets, set)
	}
	sort.Ints(sets)
	for _, set := range sets {
		fmt.Fprintf(h, "peak %d %d\n", set, rep.PeakUsed[set])
	}
	fmt.Fprintf(h, "splits %d regular %t irregular %q\n", rep.Splits, rep.Regular, rep.IrregularObjects)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// allocDigestLines schedules every case under Basic, DS and CDS exactly
// as the pipeline does and returns one "case/kind outcome" line each.
// check runs on every replay, with its full report or error.
func allocDigestLines(t *testing.T, check func(name string, s *core.Schedule, allowSplit bool, full *core.AllocationReport, fullErr error)) []string {
	t.Helper()
	var lines []string
	for _, c := range allocDigestCases(t) {
		for _, kind := range []SchedulerKind{Basic, DS, CDS} {
			name := c.name + "/" + kind.String()
			sched, err := kind.scheduler()
			if err != nil {
				t.Fatal(err)
			}
			s, err := sched.ScheduleCtx(context.Background(), c.arch, c.part)
			if err != nil {
				lines = append(lines, fmt.Sprintf("%s schedule-error %s %q", name, errorClass(err), err.Error()))
				continue
			}
			rep, err := core.Allocate(s, true)
			if check != nil {
				check(name, s, true, rep, err)
			}
			lines = append(lines, digestLine(name, rep, err))
			if kind != CDS {
				continue
			}
			// The same schedule on a Frame Buffer a quarter smaller,
			// with and without splitting: failures name the instance
			// that did not fit, and tight fits split or move objects.
			squeezed := *s
			squeezed.Arch.FBSetBytes = s.Arch.FBSetBytes * 3 / 4
			for _, split := range []bool{false, true} {
				name := fmt.Sprintf("%s/squeezed-split=%t", name, split)
				rep, err := core.Allocate(&squeezed, split)
				if check != nil {
					check(name, &squeezed, split, rep, err)
				}
				lines = append(lines, digestLine(name, rep, err))
			}
		}
	}
	return lines
}

// digestLine renders one replay outcome.
func digestLine(name string, rep *core.AllocationReport, err error) string {
	if err != nil {
		return fmt.Sprintf("%s alloc-error %s %q", name, errorClass(err), err.Error())
	}
	return fmt.Sprintf("%s ok %d-events %s", name, len(rep.Events), allocDigest(rep))
}

func readDigestFile(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(allocDigestFile)
	if err != nil {
		return nil
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, outcome, _ := strings.Cut(sc.Text(), " ")
		want[name] = outcome
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestAllocationReplayDigests pins the full event log and summary of
// every schedule's allocation replay to the committed digests, and the
// summary entry point to the full one.
func TestAllocationReplayDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("replays ~1600 schedules")
	}
	lines := allocDigestLines(t, func(name string, s *core.Schedule, allowSplit bool, full *core.AllocationReport, fullErr error) {
		sum, sumErr := core.AllocateSummary(s, allowSplit)
		if errString(sumErr) != errString(fullErr) {
			t.Errorf("%s: summary error %v, full error %v", name, sumErr, fullErr)
			return
		}
		if fullErr != nil {
			return
		}
		if sum.Events != nil {
			t.Errorf("%s: summary carries %d events", name, len(sum.Events))
		}
		if !reflect.DeepEqual(sum.PeakUsed, full.PeakUsed) || sum.Splits != full.Splits ||
			sum.Regular != full.Regular || !reflect.DeepEqual(sum.IrregularObjects, full.IrregularObjects) {
			t.Errorf("%s: summary %+v differs from full report (peaks %v splits %d regular %t irregular %v)",
				name, *sum, full.PeakUsed, full.Splits, full.Regular, full.IrregularObjects)
		}
	})

	want := readDigestFile(t)
	if want == nil {
		if err := os.MkdirAll(filepath.Dir(allocDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(allocDigestFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: wrote %d digests from the current code; review and commit it", allocDigestFile, len(lines))
	}
	if len(lines) != len(want) {
		t.Errorf("%d replays, digest file has %d", len(lines), len(want))
	}
	bad := 0
	for _, line := range lines {
		name, outcome, _ := strings.Cut(line, " ")
		if w, ok := want[name]; !ok || w != outcome {
			if bad++; bad <= 20 {
				t.Errorf("%s:\n got  %s\n want %s", name, outcome, w)
			}
		}
	}
	if bad > 20 {
		t.Errorf("... and %d more mismatches", bad-20)
	}
}
