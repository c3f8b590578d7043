package table

import (
	"bytes"
	"reflect"
	"runtime/metrics"
	"testing"
)

// FuzzDecodeStream feeds arbitrary bytes to the shared rcpt-col
// decoder. Properties: no panic; an accepted stream re-encodes to
// exactly the envelope it was read from, and that re-encoding decodes
// to the same rows; and allocation stays within a fixed allowance (the
// read buffer plus the payload presize cap) plus a small multiple of
// the input size, whatever length the header claims. Seeds:
// testdata/fuzz.
func FuzzDecodeStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		before := heapAllocs()
		tab, err := DecodeStream[testRow](bytes.NewReader(data), testCodec{})
		if grew := heapAllocs() - before; grew > allocAllowance+16*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		rows, err := Rows[testRow](tab)
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := EncodeStream[testRow](&again, testCodec{}, tab); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatal("accepted stream does not re-encode to its envelope")
		}
		tab2, err := DecodeStream[testRow](&again, testCodec{})
		if err != nil {
			t.Fatal(err)
		}
		rows2, err := Rows[testRow](tab2)
		if err != nil || !reflect.DeepEqual(rows, rows2) {
			t.Fatalf("re-encoded stream decodes differently (err %v)", err)
		}
	})
}

// allocAllowance covers the decoder's fixed costs — its 64 KiB read
// buffer and a payload buffer presized up to maxPresize — plus 1 MiB of
// slack: the runtime publishes small allocations a span at a time, so
// a window can see earlier allocations land in it.
const allocAllowance = 64<<10 + maxPresize + 1<<20

// heapAllocs is the cumulative count of heap bytes allocated. Unlike
// runtime.ReadMemStats it does not stop the world, which would stall
// the fuzzing engine.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
