package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"cds/internal/spec"
	"cds/internal/workloads"
)

// TestRoutingKeyMemoMatchesParse: the memoized routing key of every
// spec, workload and fallback body equals the uncached parse, on the
// first (memo miss) and second (memo hit) lookup alike. Spec and
// workload bodies route by CompareKey of the partition fingerprint,
// which the ring owner, peer fill and the fleet benchmark depend on;
// anything unresolvable routes by the body hash.
func TestRoutingKeyMemoMatchesParse(t *testing.T) {
	type tc struct {
		body []byte
		want []byte
	}
	var cases []tc
	for i := 0; i < 64; i++ {
		sp := workloads.GenSpec(13, i)
		raw, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(map[string]json.RawMessage{"spec": raw})
		if err != nil {
			t.Fatal(err)
		}
		part, _, err := spec.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{body, CompareKey(part.Fingerprint())})
	}
	for _, e := range workloads.All() {
		for _, body := range []string{
			fmt.Sprintf(`{"workload":%q}`, e.Name),
			fmt.Sprintf(`{"workload":%q,"arch":"M2","fb_bytes":4096}`, e.Name),
		} {
			cases = append(cases, tc{[]byte(body), CompareKey(e.Part.Fingerprint())})
		}
	}
	for _, bad := range []string{
		``, `not json`, `{}`, `{"workload":"no-such-workload"}`,
		`{"spec":{"name":"x","iterations":0}}`, `{"spec":5}`,
	} {
		cases = append(cases, tc{[]byte(bad), SweepKey("", []byte(bad))})
	}

	for _, c := range cases {
		if fresh := routingKeyOf(c.body); !bytes.Equal(fresh, c.want) {
			t.Fatalf("%s: uncached routing key %x, want %x", c.body, fresh, c.want)
		}
		hits, _, _ := routeMemo.Stats()
		for pass := 0; pass < 2; pass++ {
			if got := compareRoutingKey(c.body); !bytes.Equal(got, c.want) {
				t.Errorf("%s pass %d: memoized routing key %x, want %x", c.body, pass, got, c.want)
			}
		}
		if h, _, _ := routeMemo.Stats(); h < hits+1 {
			t.Errorf("%s: repeated lookup missed the memo", c.body)
		}
	}
}
