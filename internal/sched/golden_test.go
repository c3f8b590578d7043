package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

// TestSimulateGoldenDigest pins the exact bytes of the three simulations
// the study pipeline runs (sim-policy, sim-fcfs, sim-conservative in
// core) on the campus-2024 trace. The differential oracle shares the
// event loop, job start, run heap and shadow input layout with the fast
// path, so a change there moves both sides alike; this digest catches
// it. The digests were recorded before the prefix-reuse scheduler and
// the typed run heap, and must not move.
func TestSimulateGoldenDigest(t *testing.T) {
	jobs, err := trace.CampusModel(2024).Generate(rng.New(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{"easy-fairshare", Options{Policy: EASYBackfill, Fairshare: true}, "ddc6772ae897235a7abc7b7b15594b757b5f2eddbebe51af8264bef6c81b650a"},
		{"fcfs", Options{Policy: FCFS}, "100253b9b989c7d4f92468dfb2dfde4436fc9c1f0ad74d3fef272e3d6758a525"},
		{"conservative", Options{Policy: ConservativeBackfill}, "fbaa9b5a08b84e6263ba6185e71dab7df1e623a735378b345f127240ae23ba66"},
	}
	for _, tc := range cases {
		res, err := Simulate(DefaultCampusCluster(), jobs, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := resultDigest(t, res); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// resultDigest hashes Results, Samples and Metrics. encoding/json
// writes every float in its shortest round-trip form, so equal digests
// mean equal bits.
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range []any{res.Results, res.Samples, res.Metrics} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
