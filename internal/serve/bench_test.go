package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"cds/internal/workloads"
)

// hitBodies returns n compare bodies over generated specs whose
// comparisons are resident in the result cache, posting each through h
// until its answer is a local cache hit. Specs that never become
// resident (infeasible or degraded answers are not cached) are skipped.
func hitBodies(tb testing.TB, h http.Handler, n int) [][]byte {
	tb.Helper()
	var out [][]byte
	for i := 0; len(out) < n; i++ {
		if i > 20*n {
			tb.Fatalf("only %d of %d generated specs became resident", len(out), n)
		}
		raw, err := json.Marshal(workloads.GenSpec(1, i))
		if err != nil {
			tb.Fatal(err)
		}
		body, err := json.Marshal(map[string]json.RawMessage{"spec": raw})
		if err != nil {
			tb.Fatal(err)
		}
		for try := 0; try < 2; try++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/compare", bytes.NewReader(body)))
			if w.Code == http.StatusOK && w.Header().Get("Server-Timing") == "cache;desc=hit" {
				out = append(out, body)
				break
			}
		}
	}
	return out
}

// BenchmarkCompareHit is the served cache-hit path in process: 32
// resident generated specs posted round-robin through the full handler
// chain, each request carrying a fresh router-style Idempotency-Key the
// way schedrouter mints one per forwarded request. Run with -benchmem:
// allocs/op is the garbage one hit leaves behind.
func BenchmarkCompareHit(b *testing.B) {
	h := New(Config{}).Handler()
	bodies := hitBodies(b, h, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/compare", bytes.NewReader(bodies[i%len(bodies)]))
		req.Header.Set("Idempotency-Key", "rt-bench-"+strconv.Itoa(i))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("compare = %d: %s", w.Code, w.Body.String())
		}
	}
}
