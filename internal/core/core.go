// Package core orchestrates the rcpt study pipeline: generate (or load)
// the two survey cohorts, rake them to the institutional frame, generate
// the multi-year cluster accounting and module-load telemetry, run the
// scheduler simulation, and expose everything as Artifacts that the
// experiment registry (experiments.go) turns into the paper's tables and
// figures.
package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/modlog"
	"repro/internal/parallel"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/survey"
	"repro/internal/table"
	"repro/internal/trace"
	"repro/internal/weighting"
)

// Config parameterizes one full study run. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	Seed  uint64
	N2011 int // respondents in the 2011 cohort
	N2024 int // respondents in the 2024 cohort
	// TraceYears are the calendar years of synthetic accounting data
	// (each one representative month).
	TraceYears []int
	// SimYear is the trace year fed to the scheduler simulation.
	SimYear int
	Policy  sched.Policy
	// Rake enables post-stratification to the frame (on by default; the
	// ablation turns it off).
	Rake bool
	// PanelN is the longitudinal panel size (people observed in both
	// waves); 0 disables the panel experiments.
	PanelN int
	// NoiseRate injects synthetic data-quality problems (duplicates,
	// straight-liners, unit errors) into that fraction of each cohort
	// before screening; 0 disables injection. Screening itself always
	// runs, and hard-flagged responses are dropped before weighting.
	NoiseRate float64
	Workers   int // parallel generation fan-out; <=0 means GOMAXPROCS

	// TraceScale multiplies the synthetic accounting volume: each trace
	// year is generated TraceScale times ("replicas"), each replica from
	// its own named rng stream with submit times strided by a full year
	// so replica r's jobs all land after replica r-1's. Replica 0 is
	// bit-identical to the unscaled trace, and 0 or 1 means unscaled —
	// which is why the fingerprint only encodes TraceScale when > 1.
	// Replicas are separate pipeline stages, so a 100× year generates
	// across workers, and separate column tables, so it streams under
	// the Table memory budget.
	TraceScale int

	// Table tunes the columnar artifact storage (internal/table). All
	// execution knobs: like Workers, they are excluded from the config
	// fingerprint because artifact bytes are invariant to them (pinned
	// by the shard/batch equivalence tests).
	Table TableConfig
}

// TableConfig is the columnar-storage tuning surface.
type TableConfig struct {
	// BatchRows is rows per column batch (<=0: 8192).
	BatchRows int
	// Shards is the scanner fan-out for order-free table aggregations
	// (<=0: Workers). Order-sensitive folds ignore it by design.
	Shards int
	// SpillDir, when set, bounds resident memory by spilling column
	// batches to checksummed files under this directory; the 100×–1000×
	// runs set it. Empty keeps batches resident. Explicit by contract:
	// pipeline code never consults the environment, so there is no
	// os.TempDir fallback.
	SpillDir string
	// Resident caps in-memory batches per table when spilling (<=0: 4).
	Resident int
}

// tableOptions maps the config onto a per-table options value; sub
// names one table's private spill directory.
func (c Config) tableOptions(sub string) table.Options {
	opt := table.Options{
		BatchSize: c.Table.BatchRows,
		Resident:  c.Table.Resident,
	}
	if c.Table.SpillDir != "" {
		// Scoped by fingerprint so concurrent runs of different configs
		// (e.g. under rcpt-serve) never share spill files.
		opt.SpillDir = filepath.Join(c.Table.SpillDir, c.Fingerprint()[:12], sub)
	}
	return opt
}

// tableShards resolves the shard fan-out for order-free aggregations.
func (c Config) tableShards() int {
	if c.Table.Shards > 0 {
		return c.Table.Shards
	}
	if c.Workers > 0 {
		return c.Workers
	}
	return parallel.Workers()
}

// traceScale normalizes TraceScale (0 and 1 both mean unscaled).
func (c Config) traceScale() int {
	if c.TraceScale <= 1 {
		return 1
	}
	return c.TraceScale
}

// DefaultConfig returns the standard study configuration: cohort sizes
// echo the reconstructed study (200 in 2011, 600 in 2024), telemetry
// covers 2011–2024 every other year plus both endpoints.
func DefaultConfig() Config {
	return Config{
		Seed:       42,
		N2011:      200,
		N2024:      600,
		TraceYears: []int{2011, 2013, 2015, 2017, 2019, 2021, 2023, 2024},
		SimYear:    2024,
		Policy:     sched.EASYBackfill,
		Rake:       true,
		PanelN:     300,
		NoiseRate:  0.05,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N2011 <= 0 || c.N2024 <= 0 {
		return fmt.Errorf("core: cohort sizes must be positive, got %d and %d", c.N2011, c.N2024)
	}
	if len(c.TraceYears) == 0 {
		return errors.New("core: no trace years")
	}
	seen := map[int]bool{}
	simYearPresent := false
	for _, y := range c.TraceYears {
		if y < 2000 || y > 2100 {
			return fmt.Errorf("core: implausible trace year %d", y)
		}
		if seen[y] {
			return fmt.Errorf("core: duplicate trace year %d", y)
		}
		seen[y] = true
		if y == c.SimYear {
			simYearPresent = true
		}
	}
	if !simYearPresent {
		return fmt.Errorf("core: sim year %d not among trace years %v", c.SimYear, c.TraceYears)
	}
	if c.NoiseRate < 0 || c.NoiseRate > 0.5 {
		return fmt.Errorf("core: noise rate %g out of [0, 0.5]", c.NoiseRate)
	}
	if c.TraceScale < 0 || c.TraceScale > 100_000 {
		return fmt.Errorf("core: implausible trace scale %d", c.TraceScale)
	}
	return nil
}

// Artifacts is everything a study run produces; the experiment registry
// reads only from here, so a run is computed once and rendered many
// times.
type Artifacts struct {
	Config     Config
	Instrument *survey.Instrument

	Model2011, Model2024   *population.Model
	Cohort2011, Cohort2024 []*survey.Response
	Rake2011, Rake2024     weighting.Result
	// CohortTab2011 and CohortTab2024 are the cohorts' columnar storage,
	// built from the final (post-screening, post-raking) responses. The
	// []*survey.Response views above stay the mutable working set the
	// weighting code requires; the tables are the at-rest form — content
	// hashing, spill, and streamed export go through them.
	CohortTab2011, CohortTab2024 survey.ResponseTable

	// Jobs streams the whole multi-year accounting trace: the per-year
	// tables concatenated in TraceYears order (arrival order within each
	// year). With Config.Table.SpillDir set it never needs to be resident
	// at once.
	Jobs trace.JobTable
	// JobsByYr holds the same jobs keyed by year (each a concatenation
	// of that year's TraceScale replica tables, in replica order).
	JobsByYr map[int]trace.JobTable
	ModAgg   []modlog.YearShares // telemetry aggregated per year
	// ModEventsSim holds the sim year's telemetry events in columnar
	// form, kept for the co-load analysis (T10).
	ModEventsSim modlog.EventTable
	// Quality2011 and Quality2024 report the data-quality screening run
	// on each cohort (after optional noise injection).
	Quality2011, Quality2024 survey.QualityReport
	// Panel holds the longitudinal members (nil when Config.PanelN == 0).
	Panel   []population.PanelMember
	Sim     *sched.Result // scheduler run on SimYear's jobs
	SimFCFS *sched.Result // FCFS baseline for the ablation
	// SimConservative is the conservative-backfill run for the policy
	// comparison table (T8).
	SimConservative *sched.Result

	// derived memoizes render-path aggregates (weighted tabulations,
	// per-year job summaries, co-load matrices) so the 30+ experiments
	// stop recomputing the same scans; see derived.go. It holds locks:
	// Artifacts must not be copied by value once in use.
	derived derivations
}

// Run executes the full pipeline as a concurrent stage graph (see
// buildGraph for the DAG). Deterministic in cfg.Seed for any worker
// count: every stage draws from an rng stream split by name before the
// graph starts, so scheduling order cannot perturb output. Run and
// RunSequential produce byte-identical artifacts.
func Run(cfg Config) (*Artifacts, error) {
	return RunWithOptions(context.Background(), cfg, RunOptions{})
}

// StageObserver receives per-stage wall-clock timings from a run. It is
// telemetry only (the serving layer feeds it into a metrics histogram)
// and may be called concurrently.
type StageObserver func(stage string, seconds float64)

// RunSequential executes the same stage graph one stage at a time, in a
// deterministic topological order. It is the reference implementation
// the staged/concurrent equivalence tests and benchmarks compare
// against; per-stage fan-out (cohort generation chunks) still honors
// cfg.Workers.
func RunSequential(cfg Config) (*Artifacts, error) {
	return RunWithOptions(context.Background(), cfg, RunOptions{sequential: true})
}

// RunOptions bundles the resilience and telemetry knobs of a run. The
// zero value reproduces plain Run. None of the options may influence
// artifact bytes: observers and events are telemetry, middleware is the
// fault-injection seam (a no-op in production), and retry re-executes
// idempotent stages whose rng streams are re-derived by name on every
// attempt.
type RunOptions struct {
	// Observer receives per-stage wall-clock timings.
	Observer StageObserver
	// Events receives resilience events (recovered panics, retries,
	// cancellation) from the stage graph.
	Events func(parallel.Event)
	// Middleware wraps every stage attempt; used by internal/fault to
	// inject deterministic failures at the attempt boundary.
	Middleware parallel.StageMiddleware
	// Retry re-attempts failed stages. Backoff jitter is drawn from the
	// run's own "retry" rng stream split by stage name, so delays — and
	// therefore artifacts — are deterministic for any worker count.
	Retry parallel.RetryPolicy

	// TraceStage, when set, decides where each (year, rep) trace stage
	// runs. It is the distribution seam: the cluster layer installs a
	// dispatcher here that steals stage work to peer replicas and falls
	// back to local compute on any fault. It is called inside the
	// stage-cache-wrapped body, so only on a miss, and either returns a
	// table computed elsewhere or calls local, the in-process generator.
	// The contract is strict — a table not from local must hold exactly
	// the rows TraceReplicaTable(cfg, year, rep) would produce (the
	// checksummed stream envelope enforces transfer integrity; the
	// determinism contract guarantees any compliant peer produces the
	// same bytes), so installing a hook can change where work runs but
	// never what the artifacts contain. A hook error fails the stage like
	// any local error: it surfaces as a *parallel.StageError for that
	// stage.
	TraceStage func(ctx context.Context, cfg Config, year, rep int, local func() (trace.JobTable, error)) (trace.JobTable, error)

	// StageCache, when set, lets stages reuse outputs across runs by
	// Merkle-derived content key (see stagecache.go): a stage whose key
	// hits decodes the stored payload instead of executing its body (for
	// trace stages that skips the TraceStage hook too), a miss computes
	// then stores. Like every other option it cannot influence artifact
	// bytes — a hit restores exactly the values the body would have
	// produced, and any cache fault (corruption, codec skew, store
	// failure) degrades to recomputation.
	StageCache StageCache

	sequential bool
}

// RunWithOptions executes the pipeline under ctx with the given
// resilience options. Artifacts are byte-identical to Run for any
// worker count and any retry/fault outcome that ends in success. Once
// ctx is done no new stage starts and ctx.Err() is returned (a stage
// error that happened first wins); in-flight stages are awaited before
// return, so a cancelled run never strands goroutines.
func RunWithOptions(ctx context.Context, cfg Config, opts RunOptions) (*Artifacts, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Artifacts{
		Config:     cfg,
		Instrument: survey.Canonical(),
		Model2011:  population.Model2011(),
		Model2024:  population.Model2024(),
		JobsByYr:   map[int]trace.JobTable{},
	}
	g, err := buildGraph(ctx, cfg, a, opts.TraceStage, newStageCacher(opts.StageCache))
	if err != nil {
		return nil, err
	}
	if opts.Observer != nil {
		g.SetObserver(opts.Observer)
	}
	if opts.Events != nil {
		g.SetEventHook(opts.Events)
	}
	if opts.Middleware != nil {
		g.SetMiddleware(opts.Middleware)
	}
	if opts.Retry.MaxAttempts > 1 {
		// The jitter root is split from the same seed as the pipeline
		// root but under its own name, so retry timing shares the
		// determinism contract without touching any generation stream.
		g.SetRetry(opts.Retry, rng.New(cfg.Seed).SplitNamed("retry"))
	}
	stageWorkers := cfg.Workers
	if opts.sequential {
		stageWorkers = 1
	}
	if err := g.RunContext(ctx, stageWorkers); err != nil {
		return nil, err
	}
	return a, nil
}

// buildGraph wires the pipeline DAG:
//
//	cohort-2011 ──► rake-2011 ──► cohort-table-2011
//	cohort-2024 ──► rake-2024 ──► cohort-table-2024
//	panel
//	trace-<y>[-rep<r>] (per year × replica) ──► jobs-merge
//	trace-<simyear>[-rep<r>] ──► sim-easy │ sim-fcfs │ sim-conservative
//	modlog-<y> (per year) ──► modlog-merge
//
// Every stage owns the artifact fields it writes; concurrent stages
// never share mutable state. Per the determinism convention in
// internal/parallel, every rng stream is split off the seed-derived
// root *by name* — and the derivation happens inside each stage body,
// at the top of every attempt. SplitNamed never advances the parent, so
// the bytes are identical to deriving up front, while a retried stage
// re-derives a fresh stream instead of resuming a half-consumed one:
// that is what makes every stage idempotent and therefore retryable.
//
// ctx reaches only the traceStage hook (remote dispatch needs a
// cancellation signal); every in-process stage ignores it — the graph
// runner already stops launching stages once ctx is done.
//
// sc threads the Merkle stage cache through (nil disables it): each
// cacheable stage derives its content key at registration — topological
// order guarantees upstream keys exist — and has its body wrapped into
// load-or-(compute-and-store). jobs-merge is deliberately uncached: it
// is pure wiring over tables the trace stages already provide.
func buildGraph(ctx context.Context, cfg Config, a *Artifacts, traceStage traceStageHook, sc *stageCacher) (*parallel.Graph, error) {
	root := rng.New(cfg.Seed)
	g := parallel.NewGraph()

	// 1. Survey cohorts: generate, optionally inject noise, screen, and
	// drop hard-flagged responses. One stage per cohort.
	g11, err := population.NewGenerator(a.Model2011)
	if err != nil {
		return nil, fmt.Errorf("core: 2011 generator: %w", err)
	}
	g24, err := population.NewGenerator(a.Model2024)
	if err != nil {
		return nil, fmt.Errorf("core: 2024 generator: %w", err)
	}
	cohortStage := func(gen *population.Generator, name string, n int, dst *[]*survey.Response, report *survey.QualityReport) func() error {
		return func() error {
			seed := root.SplitNamed("cohort-" + name).Uint64()
			noiseRng := root.SplitNamed("noise-" + name)
			rs, err := gen.GenerateParallel(seed, n, cfg.Workers)
			if err != nil {
				return fmt.Errorf("core: generating %s cohort: %w", name, err)
			}
			if cfg.NoiseRate > 0 {
				noisy, _, err := population.InjectNoise(noiseRng, rs, cfg.NoiseRate)
				if err != nil {
					return fmt.Errorf("core: injecting noise into %s: %w", name, err)
				}
				rs = noisy
			}
			*report = survey.Screen(a.Instrument, rs, survey.CanonicalRules())
			rs = survey.DropHard(rs, *report)
			if len(rs) == 0 {
				return fmt.Errorf("core: screening removed the entire %s cohort", name)
			}
			*dst = rs
			return nil
		}
	}
	// Cohort payloads snapshot the at-completion state: weights here are
	// pre-raking (the rake stage mutates them in place later, but enc
	// runs before any dependent can start), and the rake stage's own
	// payload restores the post-raking weights.
	cacheCohort := func(name string, dst *[]*survey.Response, report *survey.QualityReport, body func() error) func() error {
		return sc.wrap(name, body,
			func() ([]byte, error) { return encodeCohortPayload(*dst, *report) },
			func(payload []byte) error {
				rs, qr, err := decodeCohortPayload(payload)
				if err != nil {
					return err
				}
				*dst, *report = rs, qr
				return nil
			})
	}
	sc.derive("cohort-2011", verCohort, cohortInputs(cfg, cfg.N2011))
	sc.derive("cohort-2024", verCohort, cohortInputs(cfg, cfg.N2024))
	g.AddRetryable("cohort-2011", cacheCohort("cohort-2011", &a.Cohort2011, &a.Quality2011,
		cohortStage(g11, "2011", cfg.N2011, &a.Cohort2011, &a.Quality2011)))
	g.AddRetryable("cohort-2024", cacheCohort("cohort-2024", &a.Cohort2024, &a.Quality2024,
		cohortStage(g24, "2024", cfg.N2024, &a.Cohort2024, &a.Quality2024)))

	// 1b. Longitudinal panel (optional), independent of the cohorts.
	if cfg.PanelN > 0 {
		sc.derive("panel", verPanel, panelInputs(cfg))
		g.AddRetryable("panel", sc.wrap("panel", func() error {
			panelRng := root.SplitNamed("panel")
			pg, err := population.NewPanelGenerator(a.Model2011, a.Model2024, population.PanelOptions{})
			if err != nil {
				return fmt.Errorf("core: panel generator: %w", err)
			}
			if a.Panel, err = pg.Generate(panelRng, cfg.PanelN); err != nil {
				return fmt.Errorf("core: generating panel: %w", err)
			}
			return nil
		},
			func() ([]byte, error) { return encodePanelPayload(a.Panel) },
			func(payload []byte) error {
				members, err := decodePanelPayload(payload)
				if err != nil {
					return err
				}
				a.Panel = members
				return nil
			}))
	}

	// 2. Post-stratification, each cohort independently once it lands.
	// Margins are restricted to observed categories so a small cohort
	// that happens to miss a rare stratum still rakes (the standard
	// collapsed-stratum fallback).
	if cfg.Rake {
		rakeStage := func(name string, cohort *[]*survey.Response, model *population.Model, dst *weighting.Result) func() error {
			return func() error {
				margins := make([]weighting.Margin, 0, 2)
				for _, m := range weighting.FrameMargins(model.FieldShare, model.CareerShare) {
					rm, err := weighting.RestrictToObserved(m, *cohort)
					if err != nil {
						return fmt.Errorf("core: raking %s: %w", name, err)
					}
					margins = append(margins, rm)
				}
				res, err := weighting.Rake(*cohort, margins, weighting.Options{TrimRatio: 6})
				if err != nil {
					return fmt.Errorf("core: raking %s: %w", name, err)
				}
				*dst = res
				return nil
			}
		}
		// The rake payload carries the diagnostics plus the post-raking
		// weight per response, applied positionally on restore — sound
		// because the upstream cohort key pins the responses and their
		// order. A length mismatch means skew: recompute.
		cacheRake := func(name string, cohort *[]*survey.Response, dst *weighting.Result, body func() error) func() error {
			return sc.wrap(name, body,
				func() ([]byte, error) { return encodeRakePayload(*dst, *cohort) },
				func(payload []byte) error {
					res, weights, err := decodeRakePayload(payload)
					if err != nil {
						return err
					}
					if len(weights) != len(*cohort) {
						return fmt.Errorf("core: rake payload has %d weights for %d responses", len(weights), len(*cohort))
					}
					for i, wt := range weights {
						(*cohort)[i].Weight = wt
					}
					*dst = res
					return nil
				})
		}
		sc.derive("rake-2011", verRake, "", "cohort-2011")
		sc.derive("rake-2024", verRake, "", "cohort-2024")
		g.AddRetryable("rake-2011", cacheRake("rake-2011", &a.Cohort2011, &a.Rake2011,
			rakeStage("2011", &a.Cohort2011, a.Model2011, &a.Rake2011)), "cohort-2011")
		g.AddRetryable("rake-2024", cacheRake("rake-2024", &a.Cohort2024, &a.Rake2024,
			rakeStage("2024", &a.Cohort2024, a.Model2024, &a.Rake2024)), "cohort-2024")
	}

	// 2b. Columnar cohort storage, built from the final weighted
	// responses (after raking when enabled, so the tables carry the
	// weights every downstream consumer sees at rest).
	cohortTable := func(name string, src *[]*survey.Response, dst *survey.ResponseTable) func() error {
		return func() error {
			tab, err := table.Build[survey.Response](survey.ResponseCodec{}, cfg.tableOptions("cohort-"+name),
				func(appendRow func(survey.Response)) error {
					for _, r := range *src {
						appendRow(*r)
					}
					return nil
				})
			if err != nil {
				return fmt.Errorf("core: %s cohort table: %w", name, err)
			}
			*dst = tab
			return nil
		}
	}
	dep2011, dep2024 := "cohort-2011", "cohort-2024"
	if cfg.Rake {
		dep2011, dep2024 = "rake-2011", "rake-2024"
	}
	cacheCohortTable := func(name string, dst *survey.ResponseTable, body func() error) func() error {
		return sc.wrap(name, body,
			func() ([]byte, error) { return encodeTablePayload(payloadResponses, survey.ResponseCodec{}, *dst) },
			func(payload []byte) error {
				tab, err := decodeTablePayload(payloadResponses, survey.ResponseCodec{}, payload)
				if err != nil {
					return err
				}
				*dst = tab
				return nil
			})
	}
	sc.derive("cohort-table-2011", verCohortTable, "", dep2011)
	sc.derive("cohort-table-2024", verCohortTable, "", dep2024)
	g.AddRetryable("cohort-table-2011", cacheCohortTable("cohort-table-2011", &a.CohortTab2011,
		cohortTable("2011", &a.Cohort2011, &a.CohortTab2011)), dep2011)
	g.AddRetryable("cohort-table-2024", cacheCohortTable("cohort-table-2024", &a.CohortTab2024,
		cohortTable("2024", &a.Cohort2024, &a.CohortTab2024)), dep2024)

	// 3+4. Cluster accounting traces and module-load telemetry. Traces
	// run one stage per (year, replica): TraceScale replicas of a year
	// are separate stages — that is the per-shard parallelism beyond the
	// per-year split — each streaming its generator straight into its
	// own column table, so a replica's working set is O(BatchSize ×
	// Resident), never the whole year. Telemetry stays one stage per
	// year (its volume does not scale).
	scale := cfg.traceScale()
	repTables := make([][]trace.JobTable, len(cfg.TraceYears))
	modTables := make([]modlog.EventTable, len(cfg.TraceYears))
	traceStages := make([]string, 0, len(cfg.TraceYears)*scale)
	modStages := make([]string, len(cfg.TraceYears))
	var simStages []string
	for i, year := range cfg.TraceYears {
		i, year := i, year
		repTables[i] = make([]trace.JobTable, scale)
		for rep := 0; rep < scale; rep++ {
			rep := rep
			stage := traceStreamName(year, rep)
			traceStages = append(traceStages, stage)
			if year == cfg.SimYear {
				simStages = append(simStages, stage)
			}
			g.AddRetryable(stage, traceStageBody(ctx, cfg, root, year, rep, traceStage, sc, &repTables[i][rep]))
		}
		modStages[i] = fmt.Sprintf("modlog-%d", year)
		sc.derive(modStages[i], verModlog, modlogInputs(cfg))
		g.AddRetryable(modStages[i], sc.wrap(modStages[i], func() error {
			stream := fmt.Sprintf("modlog-%d", year)
			events, err := modlog.CampusModulesModel(year).Generate(root.SplitNamed(stream))
			if err != nil {
				return fmt.Errorf("core: generating %d module log: %w", year, err)
			}
			tab, err := table.FromSlice[modlog.Event](modlog.EventCodec{}, cfg.tableOptions(stream), events)
			if err != nil {
				return fmt.Errorf("core: %d module log table: %w", year, err)
			}
			tab.SetRebuild(func(lo, hi int, into table.Columns[modlog.Event]) error {
				evs, err := modlog.CampusModulesModel(year).Generate(root.SplitNamed(stream))
				if err != nil {
					return err
				}
				for _, e := range evs[lo:hi] {
					into.Append(e)
				}
				return nil
			})
			modTables[i] = tab
			return nil
		},
			func() ([]byte, error) { return encodeTablePayload(payloadEvents, modlog.EventCodec{}, modTables[i]) },
			func(payload []byte) error {
				tab, err := decodeTablePayload(payloadEvents, modlog.EventCodec{}, payload)
				if err != nil {
					return err
				}
				modTables[i] = tab
				return nil
			}))
	}
	g.AddRetryable("jobs-merge", func() error {
		all := make([]trace.JobTable, len(cfg.TraceYears))
		for i, year := range cfg.TraceYears {
			all[i] = concatJobTables(repTables[i])
			a.JobsByYr[year] = all[i]
		}
		a.Jobs = table.Concat[trace.Job](all...)
		return nil
	}, traceStages...)
	// modlog-merge's key covers only the telemetry inputs (the upstream
	// modlog keys): the aggregate is SimYear-independent, so a SimYear
	// change keeps hitting. ModEventsSim is re-pointed from the live
	// per-year tables on both paths, which is why it is not in the
	// payload.
	sc.derive("modlog-merge", verModAgg, "", modStages...)
	g.AddRetryable("modlog-merge", sc.wrap("modlog-merge", func() error {
		agg, err := modlog.AggregateByYearTable(table.Concat[modlog.Event](modTables...), cfg.tableShards())
		if err != nil {
			return fmt.Errorf("core: aggregating module log: %w", err)
		}
		a.ModAgg = agg
		a.ModEventsSim = modTables[simIndex(cfg)]
		return nil
	},
		func() ([]byte, error) { return encodeModAggPayload(a.ModAgg) },
		func(payload []byte) error {
			agg, err := decodeModAggPayload(payload)
			if err != nil {
				return err
			}
			a.ModAgg = agg
			a.ModEventsSim = modTables[simIndex(cfg)]
			return nil
		}), modStages...)

	// 5. Scheduler simulations on the sim year: the requested policy
	// plus the FCFS and conservative baselines, concurrently as soon as
	// the sim-year replicas land (they need only that year, not the
	// merge). The generator emits arrival order and replica submit
	// windows are disjoint, so the concatenated feed streams straight
	// into the simulator — no materialization, no sort.
	cluster := sched.DefaultCampusCluster()
	simRun := func(dst **sched.Result, opt sched.Options, what string) func() error {
		return func() error {
			res, err := sched.SimulateTable(cluster, concatJobTables(repTables[simIndex(cfg)]), opt)
			if err != nil {
				return fmt.Errorf("core: %s: %w", what, err)
			}
			*dst = res
			return nil
		}
	}
	// Sim keys: the policy run reads cfg.Policy (the canonical late-DAG
	// knob — changing it invalidates exactly this one stage); the two
	// baselines hardcode theirs, distinguished by version tag. All three
	// inherit the sim-year trace keys upstream, so a seed or TraceScale
	// change invalidates them and a cohort-side change does not.
	cacheSim := func(name string, dst **sched.Result, body func() error) func() error {
		return sc.wrap(name, body,
			func() ([]byte, error) { return encodeSimPayload(*dst) },
			func(payload []byte) error {
				res, err := decodeSimPayload(payload)
				if err != nil {
					return err
				}
				*dst = res
				return nil
			})
	}
	sc.derive("sim-policy", verSimPolicy, simPolicyInputs(cfg), simStages...)
	sc.derive("sim-fcfs", verSimFCFS, "", simStages...)
	sc.derive("sim-conservative", verSimCons, "", simStages...)
	g.AddRetryable("sim-policy", cacheSim("sim-policy", &a.Sim,
		simRun(&a.Sim, sched.Options{Policy: cfg.Policy, Fairshare: true}, "scheduler simulation")), simStages...)
	g.AddRetryable("sim-fcfs", cacheSim("sim-fcfs", &a.SimFCFS,
		simRun(&a.SimFCFS, sched.Options{Policy: sched.FCFS}, "FCFS baseline")), simStages...)
	g.AddRetryable("sim-conservative", cacheSim("sim-conservative", &a.SimConservative,
		simRun(&a.SimConservative, sched.Options{Policy: sched.ConservativeBackfill}, "conservative baseline")), simStages...)
	return g, nil
}

// repStride is the submit-time offset between trace replicas: a full
// year in seconds, comfortably past the one-month horizon a single
// replica spans, so replica r's arrivals all land after replica r-1's
// and the concatenated table is in arrival order by construction.
const repStride = 366 * 86400

// TraceStageName returns the stage-graph name of the (year, rep) trace
// stage — the distribution layer uses it to attribute remote failures
// to the stage the scheduler knows.
func TraceStageName(year, rep int) string { return traceStreamName(year, rep) }

// traceStreamName names a (year, replica) trace stage and its rng
// stream. Replica 0 keeps the historical "trace-<year>" name so an
// unscaled run derives bit-identical streams to every release before
// TraceScale existed.
func traceStreamName(year, rep int) string {
	if rep == 0 {
		return fmt.Sprintf("trace-%d", year)
	}
	return fmt.Sprintf("trace-%d-rep%d", year, rep)
}

// traceFirstID is the job-ID base for a (year, replica) block. Replica
// 0 keeps the historical year*1e7 base; later replicas sit rep<<32
// above it. Year bases differ by multiples of 1e7 (max ~1e9 across the
// valid year range), far below the 2^32 replica stride, and a replica
// holds far fewer than 1e7 jobs — so blocks can never collide.
func traceFirstID(year, rep int) uint64 {
	return uint64(year)*10_000_000 + uint64(rep)<<32
}

// buildTraceReplica streams one (year, replica) trace generation into a
// column table and installs the deterministic rebuild hook used if a
// spill file is later found corrupt. newStream must derive a fresh copy
// of the replica's named rng stream on every call; the generator is the
// source of truth, so rebuilding rows [lo, hi) re-runs the stream from
// the top and recomputes byte-identical rows.
func buildTraceReplica(cfg Config, newStream func() *rng.RNG, year, rep int) (*table.Batches[trace.Job], error) {
	stream := traceStreamName(year, rep)
	offset := int64(rep) * repStride
	generate := func(emit func(trace.Job) error) error {
		return trace.CampusModel(year).GenerateStream(newStream(), traceFirstID(year, rep),
			func(j trace.Job) error {
				j.Submit += offset
				return emit(j)
			})
	}
	tab, err := table.Build[trace.Job](trace.JobCodec{}, cfg.tableOptions(stream),
		func(appendRow func(trace.Job)) error {
			return generate(func(j trace.Job) error {
				appendRow(j)
				return nil
			})
		})
	if err != nil {
		return nil, err
	}
	tab.SetRebuild(func(lo, hi int, into table.Columns[trace.Job]) error {
		i := 0
		err := generate(func(j trace.Job) error {
			if i >= hi {
				return errRebuildDone
			}
			if i >= lo {
				into.Append(j)
			}
			i++
			return nil
		})
		if err != nil && !errors.Is(err, errRebuildDone) {
			return err
		}
		return nil
	})
	return tab, nil
}

// errRebuildDone short-circuits a rebuild scan once the requested row
// window has been recomputed.
var errRebuildDone = errors.New("core: rebuild window complete")

// traceStageHook is the type of RunOptions.TraceStage.
type traceStageHook = func(ctx context.Context, cfg Config, year, rep int, local func() (trace.JobTable, error)) (trace.JobTable, error)

// traceStageBody derives the (year, rep) trace stage's cache key and
// returns its cache-wrapped body, which writes the stage's table to
// *dst. On a miss, hook (when non-nil) decides where the stage runs: it
// returns a table computed elsewhere or calls local, the in-process
// generator. buildGraph registers this body and CachedTraceReplicaTable
// runs it standalone, so the stage cache is looked up and filled in one
// place however the stage was reached.
//
// A trace stage's cache key excludes TraceScale by design: scaling up
// adds stages without renaming existing ones, so every replica a smaller
// scale cached keeps hitting. A cache hit also skips the hook — the
// bytes already exist locally, so no peer should compute them.
func traceStageBody(ctx context.Context, cfg Config, root *rng.RNG, year, rep int, hook traceStageHook, sc *stageCacher, dst *trace.JobTable) func() error {
	stage := traceStreamName(year, rep)
	// newStream derives a fresh copy of this replica's stream on every
	// call (SplitNamed is pure and never advances root), so the build and
	// any later spill rebuild replay identical draws.
	newStream := func() *rng.RNG { return root.SplitNamed(stage) }
	local := func() (trace.JobTable, error) { return buildTraceReplica(cfg, newStream, year, rep) }
	sc.derive(stage, verTrace, traceInputs(cfg))
	return sc.wrap(stage, func() error {
		var tab trace.JobTable
		var err error
		if hook != nil {
			tab, err = hook(ctx, cfg, year, rep, local)
		} else {
			tab, err = local()
		}
		if err != nil {
			return fmt.Errorf("core: generating %s: %w", stage, err)
		}
		*dst = tab
		return nil
	},
		func() ([]byte, error) { return EncodeTraceStagePayload(*dst) },
		func(payload []byte) error {
			tab, err := DecodeTraceStagePayload(payload)
			if err != nil {
				return err
			}
			*dst = tab
			return nil
		})
}

// TraceReplicaTable computes one (year, rep) trace stage of cfg from
// scratch, standalone: the rng stream is re-derived by name from
// cfg.Seed exactly as the full pipeline derives it, so the result is
// bit-identical to the table the stage graph would build in place. This
// is the unit of distributed work-stealing — a peer that receives only
// (cfg, year, rep) can execute the stage and return bytes no different
// from local compute, which is what lets the cluster layer treat remote
// faults as a latency problem, never a correctness one.
func TraceReplicaTable(cfg Config, year, rep int) (trace.JobTable, error) {
	return CachedTraceReplicaTable(cfg, year, rep, nil)
}

// CachedTraceReplicaTable is TraceReplicaTable through the stage cache:
// it runs the same cache-wrapped body the stage graph registers for the
// (year, rep) trace stage, so a stage a run already stored is restored
// instead of regenerated, and a fresh compute is stored under the key
// the graph will look up. A nil cache computes from scratch. The
// serving layer answers peer stage steals with it.
func CachedTraceReplicaTable(cfg Config, year, rep int, cache StageCache) (trace.JobTable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	found := false
	for _, y := range cfg.TraceYears {
		if y == year {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("core: year %d not among trace years %v", year, cfg.TraceYears)
	}
	if rep < 0 || rep >= cfg.traceScale() {
		return nil, fmt.Errorf("core: replica %d out of range [0, %d)", rep, cfg.traceScale())
	}
	var tab trace.JobTable
	if err := traceStageBody(context.Background(), cfg, rng.New(cfg.Seed), year, rep, nil, newStageCacher(cache), &tab)(); err != nil {
		return nil, err
	}
	return tab, nil
}

// concatJobTables joins a year's replica tables in replica order (a
// no-op for the common single-replica case).
func concatJobTables(reps []trace.JobTable) trace.JobTable {
	if len(reps) == 1 {
		return reps[0]
	}
	return table.Concat[trace.Job](reps...)
}

// simIndex returns the position of cfg.SimYear within cfg.TraceYears
// (guaranteed present by Validate).
func simIndex(cfg Config) int {
	for i, y := range cfg.TraceYears {
		if y == cfg.SimYear {
			return i
		}
	}
	panic(fmt.Sprintf("core: sim year %d not in trace years", cfg.SimYear))
}

// JobCount returns the total number of accounting jobs across all trace
// years and replicas, without materializing any of them.
func (a *Artifacts) JobCount() int {
	if a.Jobs == nil {
		return 0
	}
	return a.Jobs.Len(table.Exact)
}

// ModAggFor returns the telemetry aggregate for one year.
func (a *Artifacts) ModAggFor(year int) (modlog.YearShares, error) {
	for _, ys := range a.ModAgg {
		if ys.Year == year {
			return ys, nil
		}
	}
	return modlog.YearShares{}, fmt.Errorf("core: no telemetry for year %d", year)
}
