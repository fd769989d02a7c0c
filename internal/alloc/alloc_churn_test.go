package alloc

import (
	"fmt"
	"testing"
)

// TestChurnAllocsPerCycle pins the steady-state allocation cost of the
// BenchmarkAllocReleaseChurn cycle: 16 allocs + 16 releases. A non-split
// Placement holds its extent inline and the free-list bookkeeping —
// carve, insertFree, Reset — reuses its arrays, so a warm cycle
// allocates nothing.
func TestChurnAllocsPerCycle(t *testing.T) {
	fb := newNamed(8192, false)
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("o%d", i)
	}
	cycle := func() {
		for j, n := range names {
			dir := FromTop
			if j%2 == 1 {
				dir = FromBottom
			}
			if _, err := fb.Alloc(n, 64+j*16, dir, -1); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range names {
			if err := fb.Release(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // warm the live set and the free list capacity
	if avg := testing.AllocsPerRun(50, cycle); avg > 0 {
		t.Errorf("churn cycle allocates %.1f times, want 0", avg)
	}
}

// TestResetDoesNotAllocate pins the satellite fix: per-sweep-point FB
// churn (Reset between points) reuses the live set and free list.
func TestResetDoesNotAllocate(t *testing.T) {
	fb := newNamed(4096, false)
	if _, err := fb.Alloc("a", 256, FromTop, -1); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := fb.Alloc("b", 128, FromBottom, -1); err != nil {
			t.Fatal(err)
		}
		fb.Reset()
	}); avg > 0 {
		t.Errorf("Alloc+Reset allocates %.1f times, want 0", avg)
	}
	if err := fb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
