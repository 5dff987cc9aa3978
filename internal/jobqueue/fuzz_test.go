package jobqueue

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSubmitSpec feeds arbitrary bytes through pa-serve's decode of a
// POST /jobs body (unknown fields refused) and then the queue's
// validation, against a four-slot pool. Whatever the body holds, nothing
// panics; an accepted spec fits the pool; and normalizing an accepted
// spec again leaves it unchanged, so the stored spec is the effective
// one.
func FuzzSubmitSpec(f *testing.F) {
	for _, seed := range []string{
		`{"n":100,"x":2,"scheme":"LCP","ranks":33554432}`, // refused before its O(ranks) partition
		`{"n":100,"x":2}`,
		`{"n":1000000,"x":3,"p":0.3,"seed":7,"scheme":"ExactCP","ranks":4,"workers":2,"resolve":"recompute",` +
			`"hub_prefix":-1,"checkpoint_every":500,"stream_block_edges":64}`,
		`{"n":100,"x":2,"ranks":-1}`,
		`{"n":100,"x":2,"bogus":1}`,
		`{"n":1e300}`,
	} {
		f.Add([]byte(seed))
	}
	const slots = 4
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil || spec.normalize(slots) != nil {
			return
		}
		if spec.Ranks < 1 || spec.Ranks > slots {
			t.Fatalf("accepted %+v: ranks outside [1, %d]", spec, slots)
		}
		again := spec
		if err := again.normalize(slots); err != nil || again != spec {
			t.Fatalf("normalizing accepted %+v again gave %+v, %v", spec, again, err)
		}
	})
}
