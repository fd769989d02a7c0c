package core

import (
	"testing"

	"cds/internal/workloads"
)

// allocBenchSchedules builds the CDS schedules BenchmarkAllocate
// replays: the MPEG row of Table 1, the 32-cluster synthetic workload
// and a batch of 32 GenSpec corpus points (one op replays the batch).
func allocBenchSchedules(b *testing.B) map[string][]*Schedule {
	b.Helper()
	mpeg := workloads.MPEG()
	s, err := CompleteDataScheduler{}.Schedule(mpeg.Arch, mpeg.Part)
	if err != nil {
		b.Fatal(err)
	}
	out := map[string][]*Schedule{"mpeg": {s}}

	cfg := workloads.DefaultSynthetic()
	cfg.Clusters = 32
	part, err := workloads.Synthetic(cfg, 42)
	if err != nil {
		b.Fatal(err)
	}
	if s, err = (CompleteDataScheduler{}).Schedule(workloads.SyntheticArch(cfg), part); err != nil {
		b.Fatal(err)
	}
	out["synthetic-32"] = []*Schedule{s}

	for i := 0; len(out["corpus"]) < 32; i++ {
		part, pa, err := workloads.GenSpec(1, i).Build()
		if err != nil {
			b.Fatal(err)
		}
		if s, err := (CompleteDataScheduler{}).Schedule(pa, part); err == nil {
			out["corpus"] = append(out["corpus"], s)
		}
	}
	return out
}

// BenchmarkAllocate measures the section 5 allocation replay alone,
// through the full entry point (with the event log) and the summary
// entry point the comparison pipeline uses.
func BenchmarkAllocate(b *testing.B) {
	schedules := allocBenchSchedules(b)
	entries := []struct {
		name string
		fn   func(*Schedule, bool) (*AllocationReport, error)
	}{
		{"full", Allocate},
		{"summary", AllocateSummary},
	}
	for _, w := range []string{"mpeg", "synthetic-32", "corpus"} {
		for _, e := range entries {
			b.Run(w+"/"+e.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, s := range schedules[w] {
						if _, err := e.fn(s, true); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
