package core

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"testing"

	"repro/internal/modlog"
	"repro/internal/sched"
	"repro/internal/survey"
	"repro/internal/table"
	"repro/internal/trace"
	"repro/internal/weighting"
)

// payloadCheck decodes data as one payload kind and reports whether
// the decoder accepted it. For an accepted payload it checks that
// encode∘decode is the identity on the payload the encoder writes for
// the decoded value. Bytes are compared, not values: encoders write
// every field, and NaN floats compare unequal as values. (An accepted
// payload need not be canonical — a sim payload may, say, carry a
// dictionary entry no row uses — so data itself is not compared.)
type payloadCheck func(data []byte) (bool, error)

// stagePayloadChecks covers every stage-payload decoder.
var stagePayloadChecks = map[string]payloadCheck{
	"cohort":    roundTrip(decodeCohort, encodeCohort),
	"rake":      roundTrip(decodeRake, encodeRake),
	"panel":     roundTrip(decodePanelPayload, encodePanelPayload),
	"responses": tableRoundTrip[survey.Response](payloadResponses, survey.ResponseCodec{}),
	"jobs":      tableRoundTrip[trace.Job](payloadJobs, trace.JobCodec{}),
	"events":    tableRoundTrip[modlog.Event](payloadEvents, modlog.EventCodec{}),
	"modagg":    roundTrip(decodeModAggPayload, encodeModAggPayload),
	"sim":       roundTrip(decodeSimPayload, encodeSimPayload),
}

type cohortValue struct {
	Responses []*survey.Response
	Quality   survey.QualityReport
}

func decodeCohort(p []byte) (cohortValue, error) {
	rs, qr, err := decodeCohortPayload(p)
	return cohortValue{rs, qr}, err
}

func encodeCohort(v cohortValue) ([]byte, error) { return encodeCohortPayload(v.Responses, v.Quality) }

type rakeValue struct {
	Result  weighting.Result
	Weights []float64
}

func decodeRake(p []byte) (rakeValue, error) {
	res, weights, err := decodeRakePayload(p)
	return rakeValue{res, weights}, err
}

func encodeRake(v rakeValue) ([]byte, error) {
	cohort := make([]*survey.Response, len(v.Weights))
	for i, w := range v.Weights {
		cohort[i] = &survey.Response{Weight: w}
	}
	return encodeRakePayload(v.Result, cohort)
}

func roundTrip[V any](decode func([]byte) (V, error), encode func(V) ([]byte, error)) payloadCheck {
	return func(data []byte) (bool, error) {
		v, err := decode(data)
		if err != nil {
			return false, nil
		}
		again, err := encode(v)
		if err != nil {
			return true, fmt.Errorf("accepted payload does not re-encode: %w", err)
		}
		v2, err := decode(again)
		if err != nil {
			return true, fmt.Errorf("re-encoded payload does not decode: %w", err)
		}
		if third, err := encode(v2); err != nil || !bytes.Equal(again, third) {
			return true, fmt.Errorf("encode∘decode is not the identity on an encoded payload (err %v)", err)
		}
		return true, nil
	}
}

func tableRoundTrip[T any](magic string, codec table.Codec[T]) payloadCheck {
	return roundTrip(
		func(p []byte) ([]T, error) {
			tab, err := decodeTablePayload(magic, codec, p)
			if err != nil {
				return nil, err
			}
			return table.Rows[T](tab)
		},
		func(rows []T) ([]byte, error) {
			return encodeTablePayload(magic, codec, table.NewSlice(rows, codec.HashRow))
		})
}

// FuzzStagePayloads feeds arbitrary bytes to every stage-payload
// decoder. Properties: no panic; an accepted payload re-encodes to a
// payload that decodes and re-encodes to the same bytes; and
// allocation stays
// within a fixed allowance plus a small multiple of the input size,
// whatever count or length a field claims. Seeds: testdata/fuzz.
func FuzzStagePayloads(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, check := range stagePayloadChecks {
			before := heapAllocs()
			_, err := check(data)
			if grew := heapAllocs() - before; grew > allocAllowance+allocPerByte*uint64(len(data)) {
				t.Fatalf("%s: decoding %d bytes allocated %d", name, len(data), grew)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}

// allocAllowance covers a round trip's fixed costs — a 64 KiB read
// buffer for each table block decoded (a panel payload's two blocks,
// decoded twice) and a payload buffer presized up to 1 MiB by a block
// that claims more than it holds — plus 1 MiB of slack: the runtime
// publishes small allocations a span at a time, so a window can see
// earlier allocations land in it. allocPerByte covers decoding, the
// round trip's re-encoding and second decode, and materializing
// responses, whose answer maps cost the most per payload byte.
const (
	allocAllowance = 4*64<<10 + 1<<20 + 1<<20
	allocPerByte   = 64
)

// heapAllocs is the cumulative count of heap bytes allocated. Unlike
// runtime.ReadMemStats it does not stop the world, which would stall
// the fuzzing engine.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// lyingRakePayload is a 64-byte rake payload whose deviation-trace
// count claims 2^28-1 entries, the most the old sanity bound allowed.
func lyingRakePayload(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := table.NewWriter(&buf)
	w.String(payloadRake)
	w.Varint(3)
	w.Uvarint(1)
	for i := 0; i < 5; i++ {
		w.Float64(0)
	}
	w.Uvarint(1<<28 - 1)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	for buf.Len() < 64 {
		buf.WriteByte(0)
	}
	return buf.Bytes()
}

// TestStagePayloadLyingCount: a count no payload of this length could
// hold is rejected before anything is sized by it.
func TestStagePayloadLyingCount(t *testing.T) {
	payload := lyingRakePayload(t)
	if len(payload) != 64 {
		t.Fatalf("payload is %d bytes, want 64", len(payload))
	}
	before := heapAllocs()
	_, _, err := decodeRakePayload(payload)
	grew := heapAllocs() - before
	if err == nil {
		t.Fatal("decoded a rake payload claiming 2^28-1 deviation entries in 64 bytes")
	}
	if grew > 4<<20 {
		t.Fatalf("rejecting a 64-byte payload allocated %d bytes", grew)
	}
}

// TestStagePayloadsRoundTrip runs one encoded payload of every kind
// through every decoder: each is accepted by its own decoder only and
// passes the fuzz properties.
func TestStagePayloadsRoundTrip(t *testing.T) {
	for name, payload := range stagePayloadSeeds(t) {
		for kind, check := range stagePayloadChecks {
			ok, err := check(payload)
			if err != nil {
				t.Fatalf("%s payload through the %s decoder: %v", name, kind, err)
			}
			if ok != (kind == name) {
				t.Fatalf("%s payload accepted by the %s decoder: %v", name, kind, ok)
			}
		}
	}
}

// stagePayloadSeeds builds one small valid payload of every kind from a
// tiny run: the same bytes the committed seed corpus holds.
func stagePayloadSeeds(t *testing.T) map[string][]byte {
	t.Helper()
	cfg := Config{
		Seed:       5,
		N2011:      12,
		N2024:      12,
		TraceYears: []int{2011},
		SimYear:    2011,
		Policy:     sched.EASYBackfill,
		Rake:       true,
		PanelN:     3,
		NoiseRate:  0.2,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{}
	add := func(name string, p []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("encoding %s seed: %v", name, err)
		}
		seeds[name] = p
	}
	// A few rows of each keep a fuzz execution, and the minimizing of
	// a new input, fast.
	cohort := a.Cohort2011[:3]
	qr := a.Quality2011
	qr.Flags = qr.Flags[:min(len(qr.Flags), 3)]
	p, err := encodeCohortPayload(cohort, qr)
	add("cohort", p, err)
	rake := a.Rake2011
	rake.DeviationTrace = rake.DeviationTrace[:min(len(rake.DeviationTrace), 3)]
	p, err = encodeRakePayload(rake, cohort)
	add("rake", p, err)
	p, err = encodePanelPayload(a.Panel[:2])
	add("panel", p, err)
	responses, err := table.Rows[survey.Response](a.CohortTab2011)
	if err != nil {
		t.Fatal(err)
	}
	p, err = encodeTablePayload(payloadResponses, survey.ResponseCodec{}, table.NewSlice(responses[:3], survey.ResponseCodec{}.HashRow))
	add("responses", p, err)
	jobs, err := table.Rows[trace.Job](a.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	jobs = jobs[:8]
	p, err = encodeTablePayload(payloadJobs, trace.JobCodec{}, table.NewSlice(jobs, trace.JobCodec{}.HashRow))
	add("jobs", p, err)
	events, err := table.Rows[modlog.Event](a.ModEventsSim)
	if err != nil {
		t.Fatal(err)
	}
	events = events[:8]
	p, err = encodeTablePayload(payloadEvents, modlog.EventCodec{}, table.NewSlice(events, modlog.EventCodec{}.HashRow))
	add("events", p, err)
	p, err = encodeModAggPayload(a.ModAgg)
	add("modagg", p, err)
	sim := *a.Sim
	sim.Results = sim.Results[:8]
	sim.Samples = sim.Samples[:4]
	p, err = encodeSimPayload(&sim)
	add("sim", p, err)
	return seeds
}
