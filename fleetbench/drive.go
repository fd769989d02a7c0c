package main

// The closed loop: `clients` goroutines, each sending its next
// request only after reading the whole previous answer.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// result is one request's outcome.
type result struct {
	req    request
	status int
	body   []byte
	lat    time.Duration // send to last byte of the answer
	err    error         // transport error
}

// phase is one driven request list.
type phase struct {
	results []result
	wall    time.Duration
}

var httpClient = &http.Client{
	Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients, DisableCompression: true},
	Timeout:   60 * time.Second,
}

// post sends one request and reads the whole answer.
func post(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// url returns where a request goes.
func (f *fleet) url(w *workload, r request) string {
	if r.worker < 0 {
		return f.routerURL() + w.path()
	}
	return f.workerURL(r.worker) + w.path()
}

// drive runs the requests with the closed loop: each client takes the
// next unsent request. With a recorder, every request gets a root span
// whose request ID is its position in the results plus reqBase.
func drive(ctx context.Context, f *fleet, w *workload, reqs []request, rec *recorder, reqBase int) phase {
	out := make([]result, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := &out[i]
				r.req = reqs[i]
				body := w.body(r.req)
				id := rec.begin("e2e.request", 0, reqBase+i)
				t0 := time.Now()
				r.status, r.body, r.err = post(ctx, f.url(w, r.req), body)
				r.lat = time.Since(t0)
				rec.end(id)
			}
		}()
	}
	wg.Wait()
	return phase{results: out, wall: time.Since(start)}
}

// quantile returns the nearest-rank q-quantile of the latencies in ms.
func quantile(lats []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i]) / float64(time.Millisecond)
}

func latencies(rs []result) []time.Duration {
	out := make([]time.Duration, len(rs))
	for i, r := range rs {
		out[i] = r.lat
	}
	return out
}
