package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
)

// What-if sequence shape: steps POSTs, each changing one parameter of
// the config before it. The counts (ten cohort-side changes, one policy
// and one sim-year change, two revisits) are assumptions, not observed
// use: mostly cohort-side, as a what-if study mostly varies the survey
// side. The expensive changes (policy, sim year) sit at fixed steps
// with fixed values, so the sequence's cost does not swing with the
// seed; the seed orders the cohort-side changes and draws their values,
// the revisit targets and which bodies each run serves.
const (
	whatifSteps     = 14
	whatifTinySteps = 6
)

// whatifFixed are the steps whose change is fixed: step → change.
var whatifFixed = map[int]string{4: "simYear", 9: "policy"}

// whatifRevisits are the steps that re-send an earlier config (one of
// the two before the previous, so the run is still in the server's
// run cache).
var whatifRevisits = map[int]bool{7: true, 12: true}

// whatifStep is one POST of the sequence and the bodies read after it.
type whatifStep struct {
	cfg    core.Config
	change string
	bodies []body
}

// runParams is the POST /v1/run body: every parameter, so the request
// names the whole config rather than a delta from the server's base.
type runParams struct {
	Seed      uint64  `json:"seed"`
	N2011     int     `json:"n2011"`
	N2024     int     `json:"n2024"`
	SimYear   int     `json:"simYear"`
	Policy    string  `json:"policy"`
	Rake      bool    `json:"rake"`
	PanelN    int     `json:"panelN"`
	NoiseRate float64 `json:"noiseRate"`
}

func policyWire(p sched.Policy) string {
	switch p {
	case sched.FCFS:
		return "fcfs"
	case sched.ConservativeBackfill:
		return "conservative"
	}
	return "easy"
}

func paramsOf(c core.Config) runParams {
	return runParams{Seed: c.Seed, N2011: c.N2011, N2024: c.N2024, SimYear: c.SimYear,
		Policy: policyWire(c.Policy), Rake: c.Rake, PanelN: c.PanelN, NoiseRate: c.NoiseRate}
}

// cohortParams are the cohort-side parameters a what-if step changes.
var cohortParams = []string{"noiseRate", "rake", "panelN", "n2011", "n2024"}

// whatifSequence generates the seeded sequence from base. The cohort-side
// steps change each parameter equally often, in a seeded order and to
// seeded values, and the sequence reads every body exactly once.
func whatifSequence(seed uint64, base core.Config, tiny bool) []whatifStep {
	r := rng.New(seed).SplitNamed("whatif")
	n := whatifSteps
	if tiny {
		n = whatifTinySteps
	}
	// Exactly the cohort-side steps, each parameter equally often.
	var params []string
	for i := 0; i < n; i++ {
		if whatifFixed[i] == "" && !(whatifRevisits[i] && i >= 3) {
			params = append(params, cohortParams[len(params)%len(cohortParams)])
		}
	}
	rng.Shuffle(r, params)
	bodies := allBodies()
	rng.Shuffle(r, bodies)
	steps := make([]whatifStep, n)
	prev := base
	seen := map[string]bool{base.Fingerprint(): true}
	for i := range steps {
		cfg := prev
		cfg.TraceYears = append([]int(nil), base.TraceYears...)
		var change string
		switch {
		case whatifRevisits[i] && i >= 3:
			back := steps[i-2-r.Intn(2)]
			cfg, change = back.cfg, "revisit"
		case whatifFixed[i] == "policy":
			cfg.Policy, change = sched.ConservativeBackfill, "policy"
		case whatifFixed[i] == "simYear":
			cfg.SimYear, change = base.TraceYears[len(base.TraceYears)-2], "simYear"
		default:
			// The first remaining parameter whose change gives a config
			// not yet in the sequence: a toggle back to an earlier config
			// would be an unplanned revisit.
			for j := range params {
				if next := cohortChange(r, prev, params[j]); !seen[next.Fingerprint()] {
					cfg, change = next, params[j]
					params = append(params[:j], params[j+1:]...)
					break
				}
			}
		}
		seen[cfg.Fingerprint()] = true
		steps[i] = whatifStep{cfg: cfg, change: change, bodies: append([]body(nil), bodies[i*len(bodies)/n:(i+1)*len(bodies)/n]...)}
		prev = cfg
	}
	moveRakeFigure(steps)
	return steps
}

// rakeFigure needs the raking trace, which a run with raking off does
// not have; moveRakeFigure reads it from a run with raking on instead.
var rakeFigure = body{"F8", "svg"}

func moveRakeFigure(steps []whatifStep) {
	for i := range steps {
		if steps[i].cfg.Rake {
			continue
		}
		for j, b := range steps[i].bodies {
			if b != rakeFigure {
				continue
			}
			steps[i].bodies = append(steps[i].bodies[:j], steps[i].bodies[j+1:]...)
			for k := range steps {
				if t := (i + k) % len(steps); steps[t].cfg.Rake {
					steps[t].bodies = append(steps[t].bodies, rakeFigure)
					break
				}
			}
			break
		}
	}
}

// cohortChange sets one cohort-side parameter of c to a new seeded
// value, within about ±10% of the default: the values vary the inputs
// without letting the seed move the per-request cost much.
func cohortChange(r *rng.RNG, c core.Config, param string) core.Config {
	for {
		next := c
		switch param {
		case "noiseRate":
			next.NoiseRate = float64(2+r.Intn(7)) / 100
		case "rake":
			next.Rake = !c.Rake
		case "panelN":
			next.PanelN = 240 + 20*r.Intn(7)
		case "n2011":
			next.N2011 = 170 + 10*r.Intn(7)
		case "n2024":
			next.N2024 = 540 + 20*r.Intn(7)
		}
		if next.Fingerprint() != c.Fingerprint() {
			return next
		}
	}
}

// whatifRefs renders the bodies of every step in-process from a cold
// core.Run of the step's config, one run per distinct config and no
// stage cache, so a stale stage restored by the server cannot also
// appear in its reference.
func whatifRefs(e *env, steps []whatifStep) ([]refSet, *core.Artifacts, error) {
	refs := make([]refSet, len(steps))
	var last *core.Artifacts
	for i, s := range steps {
		if refs[i] != nil {
			continue
		}
		a, err := core.Run(s.cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("reference run of step %d: %w", i, err)
		}
		for j := i; j < len(steps); j++ {
			if steps[j].cfg.Fingerprint() != s.cfg.Fingerprint() {
				continue
			}
			refs[j] = refSet{}
			for _, b := range steps[j].bodies {
				out, err := e.render(a, b, 0)
				if err != nil {
					return nil, nil, err
				}
				refs[j][b.key()] = etagOf(out)
			}
		}
		last = a
	}
	return refs, last, nil
}

// runWhatIf is the what-if path: one client sends a seeded sequence of
// POST /v1/run requests to a replica with the stage cache on, each
// changing one parameter, and reads a few bodies of each run.
func runWhatIf(e *env) (*outcome, error) {
	o := &outcome{}
	base := readConfig(e.seed, e.tiny)
	steps := whatifSequence(e.seed, base, e.tiny)
	refs, refArts, err := whatifRefs(e, steps)
	if err != nil {
		return nil, err
	}
	clients := newClients(1)
	defer closeClients(clients)
	c := clients[0]

	began := time.Now()
	for rep := 0; ; rep++ {
		sp := e.tr.start("serve", "set-up replica", 0, 1)
		t0 := time.Now()
		l, url, err := listen()
		if err != nil {
			return nil, err
		}
		r, err := startReplica(l, url, serve.Options{BaseConfig: base, StageCache: true})
		if err != nil {
			return nil, err
		}
		if err := r.srv.Warm(); err != nil {
			return nil, errors.Join(fmt.Errorf("warming the base run: %w", err), r.stop())
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		sp.end(nil)

		var before promSnap
		if e.traced() {
			if before, err = scrape(c, r.base); err != nil {
				return nil, errors.Join(err, r.stop())
			}
		}
		var seq time.Duration
		m0 := memStats()
		for i, s := range steps {
			// Collected outside the timed steps, so each step starts from
			// the same heap state.
			runtime.GC()
			t1 := time.Now()
			whatifStepRun(e, c, r.base, s, refs[i], o)
			seq += time.Since(t1)
		}
		m1 := memStats()
		o.totalS = append(o.totalS, seq.Seconds())
		o.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		o.allocOps += len(steps)
		if e.traced() {
			after, err := scrape(c, r.base)
			if err != nil {
				return nil, errors.Join(err, r.stop())
			}
			serveLayers(e, before, after)
			e.setLayer("go.gc_cycles", float64(m1.NumGC-m0.NumGC))
		}
		if err := r.stop(); err != nil {
			return nil, err
		}
		// At least two sequences, so set-up is measured more than once.
		if rep >= 1 && time.Since(began)+seq > e.budget {
			break
		}
	}
	e.note("whatif_p50_ms", median(o.opMS), "ms")
	e.note("whatif_total_s", median(o.totalS), "s")
	e.note("whatif_alloc_mb", float64(o.allocBytes)/float64(o.allocOps)/1e6, "MB")

	if e.traced() {
		e.renderLayers()
		e.setLayer("weighting.rake_iterations", float64(refArts.Rake2011.Iterations+refArts.Rake2024.Iterations))
		if err := probeSched(e, refArts); err != nil {
			return nil, err
		}
		if err := probeStageCodec(e, refArts); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// whatifStepRun sends one step's POST, checks the run it names, and
// reads its bodies via ?run=.
func whatifStepRun(e *env, c *http.Client, base string, s whatifStep, refs refSet, o *outcome) {
	payload, err := json.Marshal(paramsOf(s.cfg))
	if err != nil {
		o.attempted++
		o.fail(err)
		return
	}
	want := s.cfg.Fingerprint()
	post := exchange{method: http.MethodPost, path: "/v1/run", body: payload,
		check: func(status int, _ http.Header, b []byte) error {
			if status != http.StatusOK {
				return fmt.Errorf("status %d: %s", status, b)
			}
			var sum struct {
				Fingerprint string `json:"fingerprint"`
			}
			if err := json.Unmarshal(b, &sum); err != nil {
				return fmt.Errorf("run summary: %w", err)
			}
			if sum.Fingerprint != want {
				return fmt.Errorf("run fingerprint %s, want %s", sum.Fingerprint, want)
			}
			return nil
		}}
	sp := e.tr.start("serve", "POST /v1/run "+s.change, 0, 1)
	t0 := time.Now()
	_, _, _, err = do(c, base, post)
	d := time.Since(t0)
	sp.end(map[string]any{"fingerprint": want[:12]})
	o.attempted++
	if err != nil {
		o.fail(err)
		return
	}
	o.opMS = append(o.opMS, float64(d.Nanoseconds())/1e6)
	for _, b := range s.bodies {
		o.attempted++
		gsp := e.tr.start("serve", "GET "+b.key(), sp.ID(), 1)
		_, _, _, err := do(c, base, exchange{method: http.MethodGet, path: b.path(want), check: checkBody(refs[b.key()], "")})
		gsp.end(nil)
		if err != nil {
			o.fail(err)
		}
	}
}

// probeStageCodec times the stage-cache codec on the sim-year trace
// table: core.EncodeTraceStagePayload and DecodeTraceStagePayload.
func probeStageCodec(e *env, a *core.Artifacts) error {
	tab := a.JobsByYr[a.Config.SimYear]
	sp := e.tr.start("stagecache", "EncodeTraceStagePayload", 0, 4)
	t0 := time.Now()
	payload, err := core.EncodeTraceStagePayload(tab)
	enc := time.Since(t0)
	sp.end(nil)
	if err != nil {
		return fmt.Errorf("encoding the trace stage: %w", err)
	}
	sp = e.tr.start("stagecache", "DecodeTraceStagePayload", 0, 4)
	t0 = time.Now()
	_, err = core.DecodeTraceStagePayload(payload)
	dec := time.Since(t0)
	sp.end(nil)
	if err != nil {
		return fmt.Errorf("decoding the trace stage: %w", err)
	}
	e.setLayer("stagecache.trace_encode_s", enc.Seconds())
	e.setLayer("stagecache.trace_decode_s", dec.Seconds())
	e.setLayer("stagecache.payload_mb", float64(len(payload))/1e6)
	return nil
}
