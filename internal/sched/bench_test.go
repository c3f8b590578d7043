package sched

// Microbenchmarks isolating the scheduler hot path per policy, so the
// incremental-profile claims in DESIGN.md ("Scheduler performance")
// are measurable without the rest of the pipeline. Two workloads: the
// standard 2024 campus trace, and a 10× synthetic trace (ten
// year-offset generations back to back) probing how the simulator
// scales with trace length. The *Naive variants run the reference
// oracle (oracle_test.go) — the pre-incremental implementation — on the
// same workload, so one `scripts/bench.sh` run records the speedup.

import (
	"sort"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/table"
	"repro/internal/trace"
)

var (
	benchTraceOnce sync.Once
	benchCampus    []trace.Job
	benchCampus10x []trace.Job
)

func benchTraces(b *testing.B) (campus, campus10x []trace.Job) {
	b.Helper()
	benchTraceOnce.Do(func() {
		jobs, err := trace.CampusModel(2024).Generate(rng.New(7), 0)
		if err != nil {
			panic(err)
		}
		benchCampus = jobs
		// Ten generations, each shifted a year apart so the backlog
		// carries realistic arrival density across the whole span.
		const yearStride = 366 * 86400
		var big []trace.Job
		for i := 0; i < 10; i++ {
			chunk, err := trace.CampusModel(2024).Generate(rng.New(uint64(100+i)), uint64(i)*10_000_000)
			if err != nil {
				panic(err)
			}
			for j := range chunk {
				chunk[j].Submit += int64(i) * yearStride
			}
			big = append(big, chunk...)
		}
		sort.Slice(big, func(a, b int) bool {
			if big[a].Submit != big[b].Submit {
				return big[a].Submit < big[b].Submit
			}
			return big[a].ID < big[b].ID
		})
		benchCampus10x = big
	})
	return benchCampus, benchCampus10x
}

func benchSimulate(b *testing.B, jobs []trace.Job, opt Options, naive bool) {
	b.Helper()
	cluster := DefaultCampusCluster()
	run := Simulate
	if naive {
		run = simulateOracle
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(cluster, jobs, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs)), "jobs")
}

func BenchmarkSimulateFCFS(b *testing.B) {
	campus, big := benchTraces(b)
	opt := Options{Policy: FCFS}
	b.Run("campus", func(b *testing.B) { benchSimulate(b, campus, opt, false) })
	b.Run("campus10x", func(b *testing.B) { benchSimulate(b, big, opt, false) })
}

func BenchmarkSimulateEASY(b *testing.B) {
	campus, big := benchTraces(b)
	// Fairshare on, mirroring the pipeline's sim-policy stage.
	opt := Options{Policy: EASYBackfill, Fairshare: true}
	b.Run("campus", func(b *testing.B) { benchSimulate(b, campus, opt, false) })
	b.Run("campus10x", func(b *testing.B) { benchSimulate(b, big, opt, false) })
}

func BenchmarkSimulateConservative(b *testing.B) {
	campus, big := benchTraces(b)
	opt := Options{Policy: ConservativeBackfill}
	b.Run("campus", func(b *testing.B) { benchSimulate(b, campus, opt, false) })
	b.Run("campus10x", func(b *testing.B) { benchSimulate(b, big, opt, false) })
}

// Naive oracle baselines (the pre-incremental implementation), campus
// trace only — the 10× workload is impractically slow under the
// quadratic rescan, which is rather the point.
func BenchmarkSimulateEASYNaive(b *testing.B) {
	campus, _ := benchTraces(b)
	benchSimulate(b, campus, Options{Policy: EASYBackfill, Fairshare: true}, true)
}

func BenchmarkSimulateConservativeNaive(b *testing.B) {
	campus, _ := benchTraces(b)
	benchSimulate(b, campus, Options{Policy: ConservativeBackfill}, true)
}

// gen10xStream streams the same 10× workload benchTraces materializes,
// without ever holding it whole: ten year-strided generations emitted
// in arrival order (the stride keeps their submit windows disjoint).
func gen10xStream(emit func(trace.Job) error) error {
	const yearStride = 366 * 86400
	for i := 0; i < 10; i++ {
		off := int64(i) * yearStride
		err := trace.CampusModel(2024).GenerateStream(rng.New(uint64(100+i)), uint64(i)*10_000_000,
			func(j trace.Job) error {
				j.Submit += off
				return emit(j)
			})
		if err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkSimulateFeed10x measures the whole feed path — trace
// storage plus simulation — on the 10× trace, one sub-benchmark per
// storage strategy. Run with -benchmem: bytes/op and allocs/op carry
// the comparison, and the resident-trace-b metric reports how much of
// the trace each strategy keeps in memory while simulating (the
// []trace.Job slice holds everything; the spilling column table holds
// O(BatchSize × Resident) regardless of trace length).
func BenchmarkSimulateFeed10x(b *testing.B) {
	opt := Options{Policy: EASYBackfill, Fairshare: true}
	cluster := DefaultCampusCluster()
	jobSize := int(unsafe.Sizeof(trace.Job{}))
	b.Run("slice", func(b *testing.B) {
		b.ReportAllocs()
		resident := 0.0
		for i := 0; i < b.N; i++ {
			var jobs []trace.Job
			if err := gen10xStream(func(j trace.Job) error { jobs = append(jobs, j); return nil }); err != nil {
				b.Fatal(err)
			}
			if _, err := Simulate(cluster, jobs, opt); err != nil {
				b.Fatal(err)
			}
			resident = float64(cap(jobs) * jobSize)
		}
		b.ReportMetric(resident, "resident-trace-b")
	})
	bench := func(b *testing.B, opts func(b *testing.B) table.Options) {
		b.ReportAllocs()
		resident := 0.0
		for i := 0; i < b.N; i++ {
			tab, err := table.Build[trace.Job](trace.JobCodec{}, opts(b), func(appendRow func(trace.Job)) error {
				return gen10xStream(func(j trace.Job) error { appendRow(j); return nil })
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := SimulateTable(cluster, tab, opt); err != nil {
				b.Fatal(err)
			}
			resident = float64(tab.MemBytes())
		}
		b.ReportMetric(resident, "resident-trace-b")
	}
	b.Run("table", func(b *testing.B) {
		bench(b, func(b *testing.B) table.Options { return table.Options{} })
	})
	b.Run("table-spill", func(b *testing.B) {
		bench(b, func(b *testing.B) table.Options {
			return table.Options{SpillDir: b.TempDir(), Resident: 2}
		})
	})
}
