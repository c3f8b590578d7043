package durable

import (
	"bytes"
	"runtime/metrics"
	"testing"
)

// FuzzDirDecode feeds arbitrary bytes to the entry decoder. Properties:
// no panic; anything accepted re-encodes to exactly the input; and the
// decoder allocates nothing proportional to what a header claims — it
// only ever slices the blob it was handed. Seeds: testdata/fuzz.
func FuzzDirDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte, wantKey string) {
		before := heapAllocs()
		payload, err := decode(blob, wantKey)
		if grew := heapAllocs() - before; grew > allocSlack+2*uint64(len(blob)) {
			t.Fatalf("decode of %d bytes allocated %d", len(blob), grew)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(encode(wantKey, payload), blob) {
			t.Fatalf("accepted envelope does not re-encode to its input")
		}
	})
}

// allocSlack absorbs the runtime's allocation accounting: it publishes
// small allocations a span at a time, so a window can see earlier
// allocations land in it.
const allocSlack = 1 << 20

// heapAllocs is the cumulative count of heap bytes allocated. Unlike
// runtime.ReadMemStats it does not stop the world, which would stall
// the fuzzing engine.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
