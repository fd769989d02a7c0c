package alloc

import "testing"

// BenchmarkAllocReleaseChurn measures steady-state alloc/release cycles
// with the two-sided discipline the schedulers use.
func BenchmarkAllocReleaseChurn(b *testing.B) {
	fb := New(8192, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			dir := FromTop
			if j%2 == 1 {
				dir = FromBottom
			}
			if _, err := fb.Alloc(Handle(j), 64+j*16, dir, -1); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < 16; j++ {
			if err := fb.Release(Handle(j)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFirstFitFragmented measures fit search over a fragmented free
// list for each policy.
func BenchmarkFirstFitFragmented(b *testing.B) {
	for _, pol := range []FitPolicy{FirstFit, BestFit, WorstFit} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			fb := New(1<<16, false)
			fb.SetFitPolicy(pol)
			// Build fragmentation: allocate 128 blocks, free every other.
			for i := 0; i < 128; i++ {
				if _, err := fb.Alloc(Handle(i), 256, FromBottom, -1); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 128; i += 2 {
				if err := fb.Release(Handle(i)); err != nil {
					b.Fatal(err)
				}
			}
			const probe = Handle(128)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fb.Alloc(probe, 128, FromTop, -1); err != nil {
					b.Fatal(err)
				}
				if err := fb.Release(probe); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
