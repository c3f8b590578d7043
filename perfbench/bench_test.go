package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n      int
		pct    float64
		wantOK bool
	}{
		{19, 0, false},   // the median has only 9 samples beyond it
		{20, 50, true},   // 10 beyond the median
		{99, 50, true},   // p90 would have 9 beyond
		{100, 90, true},  // 10 beyond p90
		{999, 90, true},  // p99 would have 9 beyond
		{1000, 99, true}, // 10 beyond p99
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		pct, v, n, ok := tail(seq(c.n))
		if ok != c.wantOK || n != c.n {
			t.Errorf("n=%d: ok=%v count=%d, want ok=%v count=%d", c.n, ok, n, c.wantOK, c.n)
			continue
		}
		if !ok {
			if !math.IsNaN(v) {
				t.Errorf("n=%d: value %g without a percentile", c.n, v)
			}
			continue
		}
		if pct != c.pct {
			t.Errorf("n=%d: percentile %g, want %g", c.n, pct, c.pct)
		}
		if want := quantile(seq(c.n), pct/100); v != want {
			t.Errorf("n=%d: value %g, want %g", c.n, v, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %g, want 1", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("q1 = %g, want 4", got)
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(7, 2000, 2*time.Second)
	b := poissonSchedule(7, 2000, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 2000, 2*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 3700 || n > 4300 {
		t.Errorf("%d arrivals in 2s at 2000/s, want about 4000", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("arrival %d at %v is out of order or past the window", i, a[i])
		}
	}
}

func TestReadMixDeterministic(t *testing.T) {
	bodies := allBodies()
	refs := refSet{}
	for _, b := range bodies {
		refs[b.key()] = etagOf([]byte(b.key()))
	}
	paths := func(seed uint64) []string {
		var out []string
		for _, x := range readMix(seed, 500, bodies, refs) {
			out = append(out, x.path+" "+x.header["If-None-Match"])
		}
		return out
	}
	a := paths(3)
	if !reflect.DeepEqual(a, paths(3)) {
		t.Fatal("same seed gave different request mixes")
	}
	if reflect.DeepEqual(a, paths(4)) {
		t.Fatal("different seeds gave the same request mix")
	}
	reval := 0
	for _, p := range a {
		if strings.HasSuffix(p, `"`) {
			reval++
		}
	}
	if reval < 75 || reval > 175 {
		t.Errorf("%d of 500 requests carry If-None-Match, want about 125", reval)
	}
}

func TestWhatIfSequence(t *testing.T) {
	base := core.DefaultConfig()
	a := whatifSequence(5, base, false)
	if !reflect.DeepEqual(a, whatifSequence(5, base, false)) {
		t.Fatal("same seed gave different sequences")
	}
	if len(a) != whatifSteps {
		t.Fatalf("%d steps, want %d", len(a), whatifSteps)
	}
	prev := base
	for i, s := range a {
		if s.cfg.Fingerprint() == prev.Fingerprint() {
			t.Errorf("step %d repeats the config before it", i)
		}
		switch s.change {
		case "revisit":
			if !whatifRevisits[i] || s.cfg.Fingerprint() != a[i-2].cfg.Fingerprint() && s.cfg.Fingerprint() != a[i-3].cfg.Fingerprint() {
				t.Errorf("step %d: unexpected revisit", i)
			}
		case "policy", "simYear":
			if whatifFixed[i] != s.change {
				t.Errorf("step %d: %s change off its fixed step", i, s.change)
			}
		default:
			if d := changedFields(prev, s.cfg); d != 1 {
				t.Errorf("step %d (%s) changes %d parameters, want 1", i, s.change, d)
			}
		}
		if err := s.cfg.Validate(); err != nil {
			t.Errorf("step %d: %v", i, err)
		}
		prev = s.cfg
	}
}

func TestCheckBodyRejects(t *testing.T) {
	good := []byte("table body")
	want := etagOf(good)
	hdr := func(tag string) http.Header { return http.Header{"Etag": []string{tag}} }
	if err := checkBody(want, "")(http.StatusOK, hdr(want), good); err != nil {
		t.Fatalf("reference body rejected: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 1
	for name, err := range map[string]error{
		"flipped byte":       checkBody(want, "")(http.StatusOK, hdr(want), bad),
		"wrong ETag":         checkBody(want, "")(http.StatusOK, hdr(etagOf(bad)), good),
		"200 on matching":    checkBody(want, want)(http.StatusOK, hdr(want), good),
		"304 on wrong ETag":  checkBody(want, `"0000"`)(http.StatusNotModified, hdr(want), nil),
		"304 without header": checkBody(want, "")(http.StatusNotModified, hdr(want), nil),
		"server error":       checkBody(want, "")(http.StatusInternalServerError, hdr(want), good),
	} {
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestWhatIfRefsRejectStale checks that the what-if references are
// cold: a step's bodies rendered from the config before it, as a stale
// stage restore would serve them, fail the step's check.
func TestWhatIfRefsRejectStale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tiny what-if sequence cold")
	}
	steps := whatifSequence(1, readConfig(1, true), true)
	refs, _, err := whatifRefs(&env{}, steps)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for i := 1; i < len(steps); i++ {
		stale, err := core.Run(steps[i-1].cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := core.Run(steps[i].cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range steps[i].bodies {
			out, err := renderBody(fresh, b)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkBody(refs[i][b.key()], "")(http.StatusOK, http.Header{"Etag": []string{etagOf(out)}}, out); err != nil {
				t.Errorf("step %d %s: fresh render rejected: %v", i, b.key(), err)
			}
			if b == rakeFigure && !steps[i-1].cfg.Rake {
				continue
			}
			old, err := renderBody(stale, b)
			if err != nil {
				t.Fatal(err)
			}
			if checkBody(refs[i][b.key()], "")(http.StatusOK, http.Header{"Etag": []string{etagOf(old)}}, old) != nil {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Error("no stale body was rejected")
	}
}

func TestHeldOutSeedsUseOtherStudies(t *testing.T) {
	held := map[uint64]bool{}
	for _, s := range studyPool(heldOutFrom + 1) {
		held[s] = true
	}
	for _, s := range studyPool(1) {
		if held[s] {
			t.Errorf("study seed %d is in both pools", s)
		}
	}
	for seed := uint64(heldOutFrom); seed < heldOutFrom+8; seed++ {
		if !held[serveSeed(seed)] {
			t.Errorf("held-out seed %d serves study seed %d, not a held-out one", seed, serveSeed(seed))
		}
	}
	if held[serveSeed(1)] {
		t.Errorf("tuning seed 1 serves held-out study seed %d", serveSeed(1))
	}
}

func changedFields(a, b core.Config) int {
	n := 0
	for _, diff := range []bool{a.Seed != b.Seed, a.N2011 != b.N2011, a.N2024 != b.N2024,
		a.SimYear != b.SimYear, a.Policy != b.Policy, a.Rake != b.Rake,
		a.PanelN != b.PanelN, a.NoiseRate != b.NoiseRate} {
		if diff {
			n++
		}
	}
	return n
}

const exposition = `# HELP rcpt_http_requests_total HTTP requests by route and status code
# TYPE rcpt_http_requests_total counter
rcpt_http_requests_total{route="GET /v1/tables/{id}",code="200"} 12
rcpt_http_requests_total{route="GET /v1/tables/{id}",code="304"} 3
rcpt_http_requests_total{route="GET /v1/figures/{id}",code="304"} 2
# TYPE rcpt_http_request_seconds histogram
rcpt_http_request_seconds_bucket{route="POST /v1/run",le="0.005"} 1
rcpt_http_request_seconds_bucket{route="POST /v1/run",le="+Inf"} 4
rcpt_http_request_seconds_sum{route="POST /v1/run"} 2.5e-01
rcpt_http_request_seconds_count{route="POST /v1/run"} 4
rcpt_odd{path="a\"b\\c\nd"} 1.5
rcpt_pipeline_runs_total 7
`

func TestParseProm(t *testing.T) {
	got, err := parseProm(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	s := promSnap(got)
	if len(s) != 9 {
		t.Fatalf("%d samples, want 9", len(s))
	}
	if v := s.sum("rcpt_http_requests_total", map[string]string{"code": "304"}); v != 5 {
		t.Errorf("304s = %g, want 5", v)
	}
	if v := s.sum("rcpt_http_requests_total", nil); v != 17 {
		t.Errorf("requests = %g, want 17", v)
	}
	if v := s.sum("rcpt_http_request_seconds_sum", map[string]string{"route": "POST /v1/run"}); v != 0.25 {
		t.Errorf("sum = %g, want 0.25", v)
	}
	if v := s.sum("rcpt_http_request_seconds_bucket", map[string]string{"le": "+Inf"}); v != 4 {
		t.Errorf("+Inf bucket = %g, want 4", v)
	}
	if v := s.sum("rcpt_odd", map[string]string{"path": "a\"b\\c\nd"}); v != 1.5 {
		t.Errorf("escaped label not matched: %g", v)
	}
	before := promSnap{{name: "rcpt_pipeline_runs_total", labels: map[string]string{}, value: 4}}
	if d := delta(before, s, "rcpt_pipeline_runs_total", nil); d != 3 {
		t.Errorf("delta = %g, want 3", d)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"rcpt_x\n",
		"rcpt_x{a=\"1\" 3\n",
		"rcpt_x{a=1} 3\n",
		"rcpt_x notanumber\n",
		"{a=\"1\"} 3\n",
	} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed %q without error", bad)
		}
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "p50_ms", "sched.allocs.easy", "core.stage.sim-fcfs_s", "9lives", strings.Repeat("a", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "é", "x{y}", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "count", "%", "MB"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "m s", strings.Repeat("s", 17)} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
	if err := checkDefs([]metricDef{{"a", "s"}, {"a", "s"}}); err == nil {
		t.Error("duplicate names accepted")
	}
}

// TestBenchmarkFileMatches pins the metric lists to BENCHMARK.json at
// the repository root, so the file and the program cannot drift.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	same := func(what string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if err := checkDefs(append(append([]metricDef{}, endToEnd...), perLayer...)); err != nil {
		t.Error(err)
	}
}

func TestTraceEventFile(t *testing.T) {
	tr := newTracer()
	root := tr.start("bench", "root", 0, 1)
	child := tr.start("core", "child", root.ID(), 2)
	child.end(map[string]any{"k": 1})
	tr.complete("sched", "stage", root.ID(), 3, 5*time.Millisecond)
	root.end(nil)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	checkTraceFile(t, path, 3)
}

func checkTraceFile(t *testing.T, path string, minEvents int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < minEvents {
		t.Fatalf("%d events, want at least %d", len(doc.TraceEvents), minEvents)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Name == "" || ev.Dur < 0 || ev.TS < 0 {
			t.Errorf("malformed event %+v", ev)
		}
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced: no
// operation may fail, every metric must be reported, and the trace file
// must load.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take tens of seconds")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				dir := t.TempDir()
				res, lines, err := measure(w, 1, time.Second, true, traced, dir)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d\n%s", traced, res.Correct, res.Attempted, res.Failed, strings.Join(lines, "\n"))
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("traced=%v: metric %s missing or mis-united: %+v", traced, d.name, m)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %g, want > 0", d.name, m.Value)
					}
				}
				if traced {
					checkTraceFile(t, filepath.Join(dir, "trace-"+w.name+"-1.json"), 1)
				}
			}
		})
	}
}
