package cluster

import (
	"encoding/json"
	"testing"

	"cds/internal/workloads"
)

// BenchmarkRoutingKey is the router's per-request key derivation over
// 32 distinct generated-spec compare bodies posted round-robin, the
// shape of a cache-hit-heavy fleet's traffic.
func BenchmarkRoutingKey(b *testing.B) {
	bodies := make([][]byte, 32)
	for i := range bodies {
		raw, err := json.Marshal(workloads.GenSpec(1, i))
		if err != nil {
			b.Fatal(err)
		}
		if bodies[i], err = json.Marshal(map[string]json.RawMessage{"spec": raw}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(compareRoutingKey(bodies[i%len(bodies)])) == 0 {
			b.Fatal("empty routing key")
		}
	}
}
