package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"cds"
	"cds/internal/arch"
	"cds/internal/rescache"
	"cds/internal/workloads"
)

// resolveCorpus is the differential corpus for the resolve memo:
// generated specs (seed 13, covering every structure class, infeasible
// and Basic-infeasible outcomes included), every Table 1 workload with
// each arch preset and FB overrides, and bodies that must be rejected.
func resolveCorpus(t *testing.T) [][]byte {
	t.Helper()
	var out [][]byte
	for i := 0; i < 200; i++ {
		raw, err := json.Marshal(workloads.GenSpec(13, i))
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(map[string]json.RawMessage{"spec": raw})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
	}
	var presets []string
	for name := range arch.Presets() {
		presets = append(presets, name)
	}
	sort.Strings(presets)
	for _, e := range workloads.All() {
		out = append(out,
			[]byte(fmt.Sprintf(`{"workload":%q}`, e.Name)),
			[]byte(fmt.Sprintf(`{"workload":%q,"fb_bytes":%d}`, e.Name, 2*e.Arch.FBSetBytes)),
			[]byte(fmt.Sprintf(`{"workload":%q,"fb_bytes":64}`, e.Name)))
		for _, p := range presets {
			out = append(out, []byte(fmt.Sprintf(`{"workload":%q,"arch":%q}`, e.Name, p)))
		}
	}
	for _, bad := range []string{
		``,
		`not json`,
		`{"workload":`,
		`{}`,
		`[]`,
		`{"workload":"no-such-workload"}`,
		`{"workload":"MPEG","arch":"no-such-arch"}`,
		`{"workload":"MPEG","spec":{"name":"x"}}`,
		`{"workload":7}`,
		`{"spec":5}`,
		`{"spec":{}}`,
		`{"spec":{"name":"x","iterations":0}}`,
		`{"spec":{"name":"x","iterations":2,"data":[{"name":"d","bytes":0}]}}`,
	} {
		out = append(out, []byte(bad))
	}
	return out
}

// postBytes serves one /v1/compare request in process.
func postBytes(h http.Handler, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/compare", bytes.NewReader(body)))
	return w
}

// TestResolveMemoMatchesParse is the memo's differential test. For every
// corpus body, the memoized resolution equals a fresh decode + resolve
// (machine, partition fingerprint, target, result-cache key, error
// text), a rejected body never becomes resident, and the served answer
// of a memo miss and of the memo hit that follows are byte-identical,
// 400 bodies included.
func TestResolveMemoMatchesParse(t *testing.T) {
	h := New(Config{}).Handler()
	statuses := map[int]int{}
	basicInfeasible := 0
	for _, body := range resolveCorpus(t) {
		want := resolveFresh(body)
		digest := sha256.Sum256(body)

		// A clean comparison is made resident first, so both served
		// answers are result-cache hits and differ only in how the body
		// was resolved: a memo miss, then a memo hit.
		if want.err == nil {
			cds.CompareAllCtx(context.Background(), want.pa, want.part)
		}
		_, resident := resolveMemo.Get(digest)
		entries := resolveMemo.Len()
		_, m0, _ := resolveMemo.Stats()
		first := postBytes(h, body)
		h1, m1, _ := resolveMemo.Stats()
		second := postBytes(h, body)
		h2, _, _ := resolveMemo.Stats()
		if first.Code != second.Code || !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Errorf("%s: memo miss answered %d %s, memo hit %d %s",
				body, first.Code, first.Body, second.Code, second.Body)
		}
		statuses[first.Code]++
		if bytes.Contains(first.Body.Bytes(), []byte(`"basic_feasible": false`)) {
			basicInfeasible++
		}

		if want.err != nil {
			if first.Code != http.StatusBadRequest {
				t.Errorf("%s: rejected body answered %d, want 400", body, first.Code)
			}
			if n := resolveMemo.Len(); n != entries {
				t.Errorf("%s: rejected body changed the memo from %d to %d entries", body, entries, n)
			}
			if got := resolveBody(body, digest); got.err == nil || got.err.Error() != want.err.Error() {
				t.Errorf("%s: memo error %v, fresh %q", body, got.err, want.err)
			}
			continue
		}
		if !resident && m1 == m0 {
			t.Errorf("%s: first request was not a memo miss", body)
		}
		if h2 == h1 {
			t.Errorf("%s: second request was not a memo hit", body)
		}
		got := resolveBody(body, digest)
		if got.err != nil || got.target != want.target || got.key != want.key || got.pa != want.pa ||
			got.part.Fingerprint() != want.part.Fingerprint() {
			t.Fatalf("%s: memo resolution (%s, %x, %v) differs from fresh (%s, %x)",
				body, got.target, got.key[:6], got.err, want.target, want.key[:6])
		}
	}
	t.Logf("answers by status %v, %d with Basic infeasible", statuses, basicInfeasible)
	if statuses[http.StatusOK] == 0 || statuses[http.StatusBadRequest] == 0 ||
		statuses[http.StatusUnprocessableEntity] == 0 || basicInfeasible == 0 {
		t.Errorf("corpus must cover served, Basic-infeasible, infeasible and rejected bodies: %v, %d Basic-infeasible",
			statuses, basicInfeasible)
	}

	// Degraded answers only come from a scheduler failing; a seam that
	// always fails CDS serves them from memoized resolutions.
	boom := errors.New("cds scheduler crashed")
	dh := New(Config{Compare: func(context.Context, cds.Arch, *cds.Part) (*cds.Comparison, error) {
		return &cds.Comparison{DS: &cds.Result{}, CDSErr: boom}, boom
	}}).Handler()
	for _, body := range resolveCorpus(t)[:20] {
		first, second := postBytes(dh, body), postBytes(dh, body)
		if first.Code != http.StatusOK || !bytes.Contains(first.Body.Bytes(), []byte(`"degraded": true`)) ||
			!bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Errorf("%s: degraded answers %d %s then %s", body, first.Code, first.Body, second.Body)
		}
	}

	// Disabled caching bypasses the memo entirely.
	prev := rescache.SetEnabled(false)
	defer rescache.SetEnabled(prev)
	hits, misses, _ := resolveMemo.Stats()
	entries := resolveMemo.Len()
	if w := postBytes(h, []byte(`{"workload":"MPEG","fb_bytes":3072}`)); w.Code != http.StatusOK {
		t.Fatalf("compare with caching disabled = %d: %s", w.Code, w.Body)
	}
	h2, m2, _ := resolveMemo.Stats()
	if h2 != hits || m2 != misses || resolveMemo.Len() != entries {
		t.Errorf("disabled memo was consulted: hits %d->%d misses %d->%d entries %d->%d",
			hits, h2, misses, m2, entries, resolveMemo.Len())
	}
}

// TestConcurrentIdenticalSpecs: 16 requests posting one spec body at
// once all get the same 200 answer, with and without a Compare seam.
// The memo hands every one of them the same *Part; under -race this
// proves the pipeline shares a parsed spec as safely as it shares the
// static workload table's partitions.
func TestConcurrentIdenticalSpecs(t *testing.T) {
	prev := cds.SetResultCaching(false) // every request computes on the shared part
	defer cds.SetResultCaching(prev)
	for i, seam := range []CompareFunc{nil, cds.CompareAllCtx} {
		name := "pipeline"
		if seam != nil {
			name = "seam"
		}
		t.Run(name, func(t *testing.T) {
			raw, err := json.Marshal(workloads.GenSpec(16, i))
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(map[string]json.RawMessage{"spec": raw})
			if err != nil {
				t.Fatal(err)
			}
			h := New(Config{Queue: 16, Compare: seam}).Handler()
			const n = 16
			answers := make([]*httptest.ResponseRecorder, n)
			var wg sync.WaitGroup
			for g := 0; g < n; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					answers[g] = postBytes(h, body)
				}(g)
			}
			wg.Wait()
			for g, w := range answers {
				if w.Code != http.StatusOK {
					t.Fatalf("request %d = %d: %s", g, w.Code, w.Body)
				}
				if !bytes.Equal(w.Body.Bytes(), answers[0].Body.Bytes()) {
					t.Errorf("request %d answered %s, request 0 %s", g, w.Body, answers[0].Body)
				}
			}
		})
	}
}
