package core

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/report"
	"repro/internal/survey"
	"repro/internal/table"
	"repro/internal/trace"
)

func TestTabulationMatchesDirectAndCaches(t *testing.T) {
	a := artifacts(t)
	direct, err := a.Instrument.Tabulate(survey.QLanguages, a.Cohort2024)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := a.Tabulation(2024, survey.QLanguages)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, cached) {
		t.Fatal("cached tabulation differs from direct computation")
	}
	again, err := a.Tabulation(2024, survey.QLanguages)
	if err != nil {
		t.Fatal(err)
	}
	// Same underlying map, not a recomputation.
	if reflect.ValueOf(again.Counts).Pointer() != reflect.ValueOf(cached.Counts).Pointer() {
		t.Fatal("second lookup recomputed the tabulation")
	}
	if _, err := a.Tabulation(1999, survey.QLanguages); err == nil {
		t.Fatal("unknown cohort year accepted")
	}
	if _, err := a.Tabulation(2024, "no-such-question"); err == nil {
		t.Fatal("unknown question accepted")
	}
}

func TestJobSummariesCachedAndEquivalent(t *testing.T) {
	a := artifacts(t)
	rows, err := table.Rows[trace.Job](a.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := trace.SummarizeByYear(rows)
	got, err := a.JobSummaries()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("cached job summaries differ from direct computation")
	}
	again, err := a.JobSummaries()
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &again[0] {
		t.Fatal("second call recomputed the summaries")
	}
}

func TestUserUsageForCachedSortedAndChecked(t *testing.T) {
	a := artifacts(t)
	vals, err := a.UserUsageFor(a.Config.SimYear)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) == 0 {
		t.Fatal("no usage values")
	}
	for i := 1; i < len(vals); i++ {
		if vals[i-1] > vals[i] {
			t.Fatal("usage vector not sorted")
		}
	}
	again, err := a.UserUsageFor(a.Config.SimYear)
	if err != nil {
		t.Fatal(err)
	}
	if &vals[0] != &again[0] {
		t.Fatal("second call recomputed the usage vector")
	}
	if _, err := a.UserUsageFor(1999); err == nil {
		t.Fatal("missing year accepted")
	}
}

func TestCoLoadPairsAndPanelWavesCached(t *testing.T) {
	a := artifacts(t)
	pairs, err := a.CoLoadPairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("no co-load pairs")
	}
	again, _ := a.CoLoadPairs()
	if &pairs[0] != &again[0] {
		t.Fatal("second call recomputed co-loads")
	}
	w1, w2, err := a.PanelWaves()
	if err != nil {
		t.Fatal(err)
	}
	if len(w1) != len(a.Panel) || len(w2) != len(a.Panel) {
		t.Fatalf("wave sizes %d/%d for %d members", len(w1), len(w2), len(a.Panel))
	}
	var empty Artifacts
	if _, _, err := empty.PanelWaves(); err == nil {
		t.Fatal("missing panel accepted")
	}
}

// TestDerivationsConcurrentAccess hammers the cache from many
// goroutines; the race detector turns any unsynchronized access into a
// failure.
func TestDerivationsConcurrentAccess(t *testing.T) {
	a := artifacts(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, qid := range []string{survey.QLanguages, survey.QPractices, survey.QParallelism} {
				if _, err := a.Tabulation(2024, qid); err != nil {
					t.Error(err)
				}
			}
			if _, err := a.JobSummaries(); err != nil {
				t.Error(err)
			}
			if _, err := a.UserUsageFor(a.Config.SimYear); err != nil {
				t.Error(err)
			}
			if _, err := a.CoLoadPairs(); err != nil {
				t.Error(err)
			}
			if _, _, err := a.PanelWaves(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// tableFormats renders a table in the four served formats, in the
// order json, txt, csv, md.
func tableFormats(tab *report.Table) ([4][]byte, error) {
	var out [4][]byte
	for i, write := range []func(io.Writer) error{tab.WriteJSON, tab.WriteASCII, tab.WriteCSV, tab.WriteMarkdown} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return out, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// renderAllBodies renders every body of exps from a: four formats per
// table, svg per figure.
func renderAllBodies(a *Artifacts, exps []Experiment) error {
	for _, e := range exps {
		if e.Kind == KindFigure {
			if err := e.Figure(a, io.Discard); err != nil {
				return err
			}
			continue
		}
		for range 4 {
			tab, err := e.Table(a)
			if err != nil {
				return err
			}
			if _, err := tableFormats(tab); err != nil {
				return err
			}
		}
	}
	return nil
}

var (
	freshOnce sync.Once
	freshArts *Artifacts
	freshErr  error
)

// freshArtifacts is a second run of smallConfig, independent of the
// package's shared run, so memoized output can be compared against raw
// builds on a run no memo has touched.
func freshArtifacts(t *testing.T) *Artifacts {
	t.Helper()
	freshOnce.Do(func() { freshArts, freshErr = Run(smallConfig()) })
	if freshErr != nil {
		t.Fatal(freshErr)
	}
	return freshArts
}

// TestMemoizedTablesMatchRawBuilders checks every table of the registry:
// the memoized build renders byte-identically, in all four formats, to
// the unwrapped builder run on a fresh run of the same config, and
// repeated calls share one table.
func TestMemoizedTablesMatchRawBuilders(t *testing.T) {
	a, fresh := artifacts(t), freshArtifacts(t)
	for _, raw := range experiments() {
		if raw.Kind != KindTable {
			continue
		}
		memo, err := Lookup(raw.ID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := memo.Table(a)
		if err != nil {
			t.Fatalf("%s: %v", raw.ID, err)
		}
		want, err := raw.Table(fresh)
		if err != nil {
			t.Fatalf("%s raw: %v", raw.ID, err)
		}
		gotBytes, err := tableFormats(got)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := tableFormats(want)
		if err != nil {
			t.Fatal(err)
		}
		for i, format := range []string{"json", "txt", "csv", "md"} {
			if !bytes.Equal(gotBytes[i], wantBytes[i]) {
				t.Fatalf("%s.%s: memoized table differs from the raw builder's", raw.ID, format)
			}
		}
		again, err := memo.Table(a)
		if err != nil {
			t.Fatal(err)
		}
		if again != got {
			t.Fatalf("%s: second call rebuilt the table", raw.ID)
		}
	}
}

// TestMemoizedTablesBuildOncePerRunConcurrently renders every body of
// one run from eight goroutines through counting builders: each builder
// must run exactly once. Under -race it also checks that the shared
// tables are only read.
func TestMemoizedTablesBuildOncePerRunConcurrently(t *testing.T) {
	a := freshArtifacts(t)
	a.ResetTables()
	t.Cleanup(a.ResetTables)
	exps := experiments()
	counts := make([]atomic.Int32, len(exps))
	for i := range exps {
		if raw := exps[i].Table; raw != nil {
			n := &counts[i]
			exps[i].Table = memoTable(exps[i].ID, func(a *Artifacts) (*report.Table, error) {
				n.Add(1)
				return raw(a)
			})
		}
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := renderAllBodies(a, exps); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, e := range exps {
		if e.Kind == KindTable && counts[i].Load() != 1 {
			t.Errorf("%s built %d times, want 1", e.ID, counts[i].Load())
		}
	}
}

// TestMemoTableNeverYieldsNilTable pins the panic path: sync.Once counts
// a panicking call as done, so the memo must store an error, not hand
// later callers a nil table with a nil error.
func TestMemoTableNeverYieldsNilTable(t *testing.T) {
	var a Artifacts
	panics := memoTable("TP", func(*Artifacts) (*report.Table, error) { panic("boom") })
	for call := 0; call < 2; call++ {
		tab, err := panics(&a)
		if tab != nil || err == nil {
			t.Fatalf("call %d: got (%v, %v), want a nil table and an error", call, tab, err)
		}
		if !strings.Contains(err.Error(), "TP") || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("call %d: error %q does not name the experiment and the panic", call, err)
		}
	}
}

func TestLookupAllocationFreeAndRegistryCopied(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _, _ = Lookup("T16") }); n != 0 {
		t.Fatalf("Lookup allocated %v times per call", n)
	}
	reg := Registry()
	for i := range reg {
		reg[i].ID, reg[i].Table, reg[i].Figure = "X", nil, nil
	}
	e, err := Lookup("T16")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "T16" || e.Table == nil {
		t.Fatalf("mutating Registry's slice changed Lookup: %+v", e)
	}
	if Registry()[0].ID != "T1" {
		t.Fatal("mutating Registry's slice changed the registry")
	}
}

// BenchmarkRenderAllBodies measures a cold render of one run: every
// body of the registry (four formats per table, svg per figure), with
// the run's derivations, tables included, dropped before each
// iteration.
func BenchmarkRenderAllBodies(b *testing.B) {
	a, err := Run(smallConfig())
	if err != nil {
		b.Fatal(err)
	}
	exps := Registry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.derived = derivations{}
		if err := renderAllBodies(a, exps); err != nil {
			b.Fatal(err)
		}
	}
}
