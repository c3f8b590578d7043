package sched

// Reference oracle: the naive scheduler implementation that rebuilds
// the availability profile from scratch on every started job, re-sorts
// the queue on every pass, and allocates fresh profile/order slices
// per call. It is kept verbatim (modulo the interned-usage storage the
// whole package shares) as the semantic ground truth for the optimized
// incremental simulator in sched.go/conservative.go: the differential
// property test below asserts both produce identical Results across
// seeded random traces, policies, and cluster shapes. The oracle only
// replaces the per-event scheduling step; validation, the event loop
// and job starts are shared, and TestSimulateGoldenDigest pins those.
//
// Do not "optimize" the oracle — its entire value is being the slow,
// obviously-correct implementation.

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

// simulateOracle runs the naive reference implementation with the same
// validation, event loop and bookkeeping as Simulate; only the
// per-event scheduling step differs.
func simulateOracle(cluster Cluster, jobs []trace.Job, opt Options) (*Result, error) {
	s, err := newCheckedSim(cluster, jobs, opt)
	if err != nil {
		return nil, err
	}
	if err := s.run(func() error { s.scheduleNaive(); return nil }); err != nil {
		return nil, err
	}
	return s.finish()
}

// scheduleNaive is the pre-incremental schedule(): fresh order copy per
// iteration, shadow recomputed with a fresh sort per backfill attempt.
func (s *sim) scheduleNaive() {
	if s.opt.Policy == ConservativeBackfill {
		s.scheduleConservativeNaive()
		return
	}
	for {
		startedOne := false
		order := s.orderNaive()
		if len(order) == 0 {
			return
		}
		head := order[0]
		if s.fits(head.job) {
			s.start(head)
			startedOne = true
		} else if s.opt.Policy == EASYBackfill && len(order) > 1 {
			// Shadow time: when will the head fit, assuming running jobs
			// hold resources until their *requested* limits (as EASY does)?
			shadow, spareCPU, spareGPUCore, spareGPU := s.shadowNaive(head.job)
			for _, cand := range order[1:] {
				if !s.fits(cand.job) {
					continue
				}
				// A backfilled job must either end by the shadow time or
				// not touch the resources the head is waiting for.
				endsByShadow := s.now+cand.job.Limit <= shadow
				var withinSpare bool
				if cand.job.Partition == "gpu" {
					withinSpare = cand.job.Cores() <= spareGPUCore && cand.job.GPUs <= spareGPU
				} else {
					withinSpare = cand.job.Cores() <= spareCPU
				}
				if endsByShadow || withinSpare {
					s.start(cand)
					s.backfills++
					startedOne = true
					break // re-evaluate shadow with updated state
				}
			}
		}
		if !startedOne {
			return
		}
	}
}

// orderNaive returns a freshly allocated copy of the queue in
// scheduling priority order, re-sorting (with per-comparison usage
// lookups) on every call.
func (s *sim) orderNaive() []*queued {
	q := make([]*queued, len(s.queue))
	copy(q, s.queue)
	if s.opt.Fairshare {
		sort.SliceStable(q, func(a, b int) bool {
			ua, ub := s.usage[q[a].user], s.usage[q[b].user]
			if ua != ub {
				return ua < ub
			}
			return q[a].seq < q[b].seq
		})
	}
	return q
}

// shadowNaive computes the head job's reservation with a fresh
// allocation and sort of the running set per call.
func (s *sim) shadowNaive(head trace.Job) (shadowTime int64, spareCPU, spareGPUCore, spareGPU int) {
	// Sort running jobs by limit-based end time.
	type rel struct {
		t                int64
		cores, gpuc, gpu int
	}
	var rels []rel
	for _, e := range s.running {
		// Conservative end: start + limit. Start = end - elapsed.
		startT := e.end - e.job.Elapsed
		r := rel{t: startT + e.job.Limit}
		if e.job.Partition == "gpu" {
			r.gpuc = e.job.Cores()
			r.gpu = e.job.GPUs
		} else {
			r.cores = e.job.Cores()
		}
		rels = append(rels, r)
	}
	sort.Slice(rels, func(a, b int) bool { return rels[a].t < rels[b].t })
	cpu, gpuc, gpu := s.cpuFree, s.gpuCore, s.gpuFree
	headFits := func() bool {
		if head.Partition == "gpu" {
			return head.Cores() <= gpuc && head.GPUs <= gpu
		}
		return head.Cores() <= cpu
	}
	shadowTime = s.now
	for _, r := range rels {
		if headFits() {
			break
		}
		cpu += r.cores
		gpuc += r.gpuc
		gpu += r.gpu
		shadowTime = r.t
	}
	// Spare capacity at shadow time, after the head takes its share.
	if head.Partition == "gpu" {
		spareCPU = cpu
		spareGPUCore = gpuc - head.Cores()
		spareGPU = gpu - head.GPUs
	} else {
		spareCPU = cpu - head.Cores()
		spareGPUCore = gpuc
		spareGPU = gpu
	}
	if spareCPU < 0 {
		spareCPU = 0
	}
	if spareGPUCore < 0 {
		spareGPUCore = 0
	}
	if spareGPU < 0 {
		spareGPU = 0
	}
	return shadowTime, spareCPU, spareGPUCore, spareGPU
}

// naiveProfile is the original array-of-structs step function the
// optimized struct-of-arrays profile replaced.
type naiveProfile struct {
	times []int64
	free  []need
}

// newProfileNaive builds the availability profile from scratch: fresh
// slices, fresh sort of the running set.
func (s *sim) newProfileNaive() *naiveProfile {
	type release struct {
		t int64
		n need
	}
	var rels []release
	for _, e := range s.running {
		startT := e.end - e.job.Elapsed
		rels = append(rels, release{t: startT + e.job.Limit, n: needOf(e.job)})
	}
	sort.Slice(rels, func(a, b int) bool { return rels[a].t < rels[b].t })
	p := &naiveProfile{
		times: []int64{s.now},
		free:  []need{{cpu: s.cpuFree, gpuCore: s.gpuCore, gpu: s.gpuFree}},
	}
	for _, r := range rels {
		last := p.free[len(p.free)-1]
		next := need{cpu: last.cpu + r.n.cpu, gpuCore: last.gpuCore + r.n.gpuCore, gpu: last.gpu + r.n.gpu}
		if r.t <= p.times[len(p.times)-1] {
			// Release at (or before) the current step start: merge.
			p.free[len(p.free)-1] = next
			continue
		}
		p.times = append(p.times, r.t)
		p.free = append(p.free, next)
	}
	return p
}

// earliestFitNaive is the quadratic nested rescan: for each candidate
// step, re-checks the whole window, with the historical silent
// steady-state fallback.
func (p *naiveProfile) earliestFitNaive(n need, duration int64) int64 {
	for i := range p.times {
		start := p.times[i]
		if !n.fitsIn(p.free[i]) {
			continue
		}
		// Check the window [start, start+duration) stays feasible.
		end := start + duration
		ok := true
		for j := i + 1; j < len(p.times) && p.times[j] < end; j++ {
			if !n.fitsIn(p.free[j]) {
				ok = false
				break
			}
		}
		if ok {
			return start
		}
	}
	// After the last event everything running has released; the final
	// step is the steady state and must fit any pre-validated job.
	return p.times[len(p.times)-1]
}

// reserveNaive subtracts n over [start, start+duration) with two
// independent boundary insertions and a full-profile scan.
func (p *naiveProfile) reserveNaive(n need, start, duration int64) {
	end := start + duration
	p.ensureBoundaryNaive(start)
	p.ensureBoundaryNaive(end)
	for i := range p.times {
		if p.times[i] >= start && p.times[i] < end {
			p.free[i].cpu -= n.cpu
			p.free[i].gpuCore -= n.gpuCore
			p.free[i].gpu -= n.gpu
		}
	}
}

// ensureBoundaryNaive splits the step containing t so t is a step start.
func (p *naiveProfile) ensureBoundaryNaive(t int64) {
	if t <= p.times[0] {
		return
	}
	idx := sort.Search(len(p.times), func(i int) bool { return p.times[i] >= t })
	if idx < len(p.times) && p.times[idx] == t {
		return
	}
	// Insert at idx, copying the preceding step's availability.
	p.times = append(p.times, 0)
	p.free = append(p.free, need{})
	copy(p.times[idx+1:], p.times[idx:])
	copy(p.free[idx+1:], p.free[idx:])
	p.times[idx] = t
	p.free[idx] = p.free[idx-1]
}

// scheduleConservativeNaive runs one conservative-backfill pass the
// pre-incremental way: fresh order copy and full profile rebuild after
// every started job.
func (s *sim) scheduleConservativeNaive() {
	for {
		order := s.orderNaive()
		if len(order) == 0 {
			return
		}
		p := s.newProfileNaive()
		startedOne := false
		depth := len(order)
		if depth > bfDepth {
			depth = bfDepth
		}
		for qi := 0; qi < depth; qi++ {
			q := order[qi]
			n := needOf(q.job)
			start := p.earliestFitNaive(n, q.job.Limit)
			if start == s.now && s.fits(q.job) {
				s.start(q)
				if qi > 0 {
					s.backfills++
				}
				startedOne = true
				break // state changed; rebuild the profile
			}
			p.reserveNaive(n, start, q.job.Limit)
		}
		if !startedOne {
			return
		}
	}
}

// randomTrace generates a valid random workload scaled to the cluster:
// job widths up to roughly half the machine, bursts of equal submit
// times and equal limits to stress tie-breaking, and a GPU mix when the
// cluster has a GPU pool.
func randomTrace(r *rng.RNG, c Cluster, n int) []trace.Job {
	users := []string{"ada", "bob", "cam", "dee", "eve"}
	jobs := make([]trace.Job, 0, n)
	var lastSubmit int64
	for i := 0; i < n; i++ {
		submit := lastSubmit
		if !r.Bool(0.25) { // 25% exact ties with the previous arrival
			submit += int64(r.Intn(4000))
		}
		lastSubmit = submit
		elapsed := int64(1 + r.Intn(3000))
		limit := elapsed
		if !r.Bool(0.3) { // 30% exact-limit (timeout-shaped) jobs
			limit += int64(1 + r.Intn(1200))
		}
		j := trace.Job{
			ID: uint64(i + 1), User: users[r.Intn(len(users))], Account: "x",
			Partition: "cpu", Year: 2024, Submit: submit,
			Nodes: 1 + r.Intn(maxInt(1, c.CPUNodes/2)), CoresPer: 1 + r.Intn(c.CoresPerNode),
			Limit: limit, Elapsed: elapsed, State: trace.StateCompleted, Language: "c",
		}
		if c.GPUNodes > 0 && r.Bool(0.3) {
			j.Partition = "gpu"
			j.Nodes = 1 + r.Intn(maxInt(1, c.GPUNodes/2))
			j.GPUs = 1 + r.Intn(c.GPUsPerNode*j.Nodes)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestDifferentialOracle pins the determinism contract of the
// incremental simulator: across seeded random traces, all three
// policies, fairshare on and off, and both cluster shapes, the
// optimized fast path must produce Results identical to the naive
// reference oracle — same per-job outcomes, same utilization samples,
// same metrics, bit for bit.
func TestDifferentialOracle(t *testing.T) {
	clusters := []struct {
		name string
		c    Cluster
	}{
		{"small", smallCluster()},
		{"campus", DefaultCampusCluster()},
	}
	policies := []Policy{FCFS, EASYBackfill, ConservativeBackfill}
	const tracesPerCluster = 110 // ×2 clusters = 220 seeded traces ≥ the 200 the contract demands
	for _, cl := range clusters {
		cl := cl
		t.Run(cl.name, func(t *testing.T) {
			for seed := uint64(0); seed < tracesPerCluster; seed++ {
				r := rng.New(seed*2654435761 + 17)
				jobs := randomTrace(r, cl.c, 20+r.Intn(80))
				for _, pol := range policies {
					opt := Options{Policy: pol, Fairshare: seed%2 == 0, UtilSampleEvery: 900}
					checkOracle(t, cl.c, jobs, opt, seed)
				}
			}
		})
	}
	// Backlogged traces: arrivals twenty times denser than above keep
	// the queue well past bfDepth, so the conservative depth window,
	// the resumed pass after a start and the work profile carried over
	// arrival-only events all run, under both queue orders.
	t.Run("small-backlog", func(t *testing.T) {
		c := smallCluster()
		maxQueued := 0
		for seed := uint64(0); seed < 12; seed++ {
			jobs := randomTrace(rng.New(seed*40503+9), c, 400)
			for i := range jobs {
				jobs[i].Submit /= 20
			}
			for _, pol := range policies {
				for _, fair := range []bool{false, true} {
					opt := Options{Policy: pol, Fairshare: fair, UtilSampleEvery: 900}
					got := checkOracle(t, c, jobs, opt, seed)
					for _, smp := range got.Samples {
						maxQueued = max(maxQueued, smp.Queued)
					}
				}
			}
		}
		if maxQueued <= bfDepth {
			t.Fatalf("backlogged traces peaked at %d queued jobs; they must exceed bfDepth=%d", maxQueued, bfDepth)
		}
	})
}

// checkOracle simulates jobs on both the fast path and the oracle and
// fails the test on the first divergence. It returns the fast result.
func checkOracle(t *testing.T, c Cluster, jobs []trace.Job, opt Options, seed uint64) *Result {
	t.Helper()
	got, err := Simulate(c, jobs, opt)
	if err != nil {
		t.Fatalf("seed %d %v: optimized: %v", seed, opt.Policy, err)
	}
	want, err := simulateOracle(c, jobs, opt)
	if err != nil {
		t.Fatalf("seed %d %v: oracle: %v", seed, opt.Policy, err)
	}
	if err := diffResults(got, want); err != nil {
		t.Fatalf("seed %d %v fairshare=%v: optimized diverges from oracle: %v",
			seed, opt.Policy, opt.Fairshare, err)
	}
	return got
}

// diffResults reports the first divergence between two simulation
// outputs, or nil if they are identical.
func diffResults(got, want *Result) error {
	if len(got.Results) != len(want.Results) {
		return fmt.Errorf("result counts %d vs %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		if got.Results[i] != want.Results[i] {
			return fmt.Errorf("result %d: %+v vs %+v", i, got.Results[i], want.Results[i])
		}
	}
	if len(got.Samples) != len(want.Samples) {
		return fmt.Errorf("sample counts %d vs %d", len(got.Samples), len(want.Samples))
	}
	for i := range got.Samples {
		if got.Samples[i] != want.Samples[i] {
			return fmt.Errorf("sample %d: %+v vs %+v", i, got.Samples[i], want.Samples[i])
		}
	}
	if got.Metrics != want.Metrics {
		return fmt.Errorf("metrics %+v vs %+v", got.Metrics, want.Metrics)
	}
	return nil
}

// TestOversizedJobErrNeverFits drives an oversized job through the
// conservative reservation path directly (bypassing Simulate's up-front
// validation, as a caller constructing sims by hand could) and asserts
// the typed ErrNeverFits error surfaces instead of the historical
// silent steady-state fallback.
func TestOversizedJobErrNeverFits(t *testing.T) {
	blocker := mkJob(1, 0, 4, 8, 1000) // fills the 32-core machine
	tooWide := mkJob(2, 10, 8, 8, 100) // 64 cores on a 32-core machine
	s := newSim(smallCluster(), []trace.Job{blocker, tooWide},
		Options{Policy: ConservativeBackfill, UtilSampleEvery: 3600})
	err := s.run(s.schedule)
	if err == nil {
		t.Fatal("oversized job reached a reservation without error")
	}
	if !errors.Is(err, ErrNeverFits) {
		t.Fatalf("error %v is not ErrNeverFits", err)
	}
}
