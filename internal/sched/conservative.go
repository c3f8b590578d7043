package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/trace"
)

// Conservative backfill gives every queued job (up to bfDepth) a
// reservation against a limit-based resource-availability profile; a
// job starts now only if its reservation is now. Unlike EASY, no job's
// reservation can be delayed by a later backfill, at the cost of more
// bookkeeping and fewer backfill opportunities.
//
// The hot path is incremental (DESIGN.md "Scheduler performance"): the
// base profile is rebuilt from the sorted release list at most once per
// simulation event and updated in place as jobs start; reservations go
// on a scratch copy that is kept for as long as they provably hold, so
// nothing here allocates in steady state. The pre-incremental
// implementation survives as the reference oracle in oracle_test.go.

// bfDepth caps how many queued jobs receive reservations per scheduling
// pass, mirroring Slurm's bf_max_job_test; jobs beyond the cap simply
// wait for the next pass.
const bfDepth = 128

// need is a resource demand or availability vector.
type need struct {
	cpu     int // cpu-partition cores
	gpuCore int // gpu-partition cores
	gpu     int // gpus
}

func needOf(j trace.Job) need {
	if j.Partition == "gpu" {
		return need{gpuCore: j.Cores(), gpu: j.GPUs}
	}
	return need{cpu: j.Cores()}
}

func (n need) fitsIn(avail need) bool {
	return n.cpu <= avail.cpu && n.gpuCore <= avail.gpuCore && n.gpu <= avail.gpu
}

// profile tracks free resources over future time as a step function.
// The three resource lanes are stored as parallel arrays (struct of
// arrays) sharing the times axis: feasibility scans for a cpu-partition
// job read only the cpu lane, and gpu-partition scans only the two gpu
// lanes. That specialization is sound because availability is never
// negative (conservation invariants on live resources; reservations
// only land in windows verified feasible), so a zero demand trivially
// fits every step of the lanes it does not touch.
type profile struct {
	times   []int64 // strictly increasing; times[0] == now
	cpu     []int32 // free cpu-partition cores in [times[i], times[i+1])
	gpuCore []int32 // free gpu-partition cores
	gpu     []int32 // free gpus
}

// copyFrom makes p an independent copy of src, reusing p's backing
// arrays.
func (p *profile) copyFrom(src *profile) {
	p.times = append(p.times[:0], src.times...)
	p.cpu = append(p.cpu[:0], src.cpu...)
	p.gpuCore = append(p.gpuCore[:0], src.gpuCore...)
	p.gpu = append(p.gpu[:0], src.gpu...)
}

// rebuildBase reconstructs the availability profile for the current
// instant from free resources and the incrementally maintained release
// list. Unlike the oracle's profile rebuild this does not sort (the
// release list is kept ordered on job start/finish) and reuses the
// base profile's backing arrays, so a rebuild is one linear merge.
func (s *sim) rebuildBase() {
	p := &s.base
	p.times = append(p.times[:0], s.now)
	p.cpu = append(p.cpu[:0], int32(s.cpuFree))
	p.gpuCore = append(p.gpuCore[:0], int32(s.gpuCore))
	p.gpu = append(p.gpu[:0], int32(s.gpuFree))
	for i := range s.releases {
		r := &s.releases[i]
		last := len(p.times) - 1
		if r.t > p.times[last] {
			// New step, carrying the previous availability forward.
			p.times = append(p.times, r.t)
			p.cpu = append(p.cpu, p.cpu[last])
			p.gpuCore = append(p.gpuCore, p.gpuCore[last])
			p.gpu = append(p.gpu, p.gpu[last])
			last++
		}
		// Release at (or before) the current step start: merge.
		p.cpu[last] += int32(r.n.cpu)
		p.gpuCore[last] += int32(r.n.gpuCore)
		p.gpu[last] += int32(r.n.gpu)
	}
	s.baseOK = true
}

// earliestFit returns the earliest time >= now at which n is available
// continuously for duration seconds. A single cursor tracks the first
// step after the most recent infeasible one, so the scan is linear in
// profile steps instead of the oracle's nested rescan, and only the
// lanes the job's partition uses are read. ok is false when even the
// final (steady-state) step cannot hold n — the caller must surface
// ErrNeverFits rather than fabricate a reservation.
func (p *profile) earliestFit(n need, duration int64) (start int64, ok bool) {
	if n.gpuCore == 0 && n.gpu == 0 {
		return p.earliestFitLane(p.cpu, nil, int32(n.cpu), 0, duration)
	}
	return p.earliestFitLane(p.gpuCore, p.gpu, int32(n.gpuCore), int32(n.gpu), duration)
}

// earliestFitLane runs the cursor scan over one lane (b nil) or two.
func (p *profile) earliestFitLane(a, b []int32, na, nb int32, duration int64) (int64, bool) {
	i := 0 // candidate start step: first feasible step after the last infeasible one
	last := len(p.times) - 1
	for j := 0; j <= last; j++ {
		if na > a[j] || (b != nil && nb > b[j]) {
			i = j + 1
			continue
		}
		if j == last {
			// Feasible through the final step, which extends forever.
			return p.times[i], true
		}
		if p.times[j+1] >= p.times[i]+duration {
			// Steps i..j cover [times[i], times[i]+duration) entirely.
			return p.times[i], true
		}
	}
	return 0, false
}

// reserve subtracts n from the profile over [start, start+duration).
// Both step boundaries are resolved (inserting at most one step each)
// and the subtraction touches only the covered step range of the lanes
// the job actually uses, instead of the oracle's two independent
// insertions plus full-profile scan.
func (p *profile) reserve(n need, start, duration int64) {
	si := p.boundary(start)
	ei := p.boundary(start + duration)
	if n.gpuCore == 0 && n.gpu == 0 {
		lane := p.cpu[si:ei]
		for i := range lane {
			lane[i] -= int32(n.cpu)
		}
		return
	}
	gc, g := p.gpuCore[si:ei], p.gpu[si:ei]
	for i := range gc {
		gc[i] -= int32(n.gpuCore)
		g[i] -= int32(n.gpu)
	}
}

// boundary returns the index of the step starting at t, splitting the
// step containing t if needed. Times at or before the profile start
// map to step 0.
func (p *profile) boundary(t int64) int {
	if t <= p.times[0] {
		return 0
	}
	idx := sort.Search(len(p.times), func(i int) bool { return p.times[i] >= t })
	if idx < len(p.times) && p.times[idx] == t {
		return idx
	}
	// Insert at idx, copying the preceding step's availability.
	p.times = append(p.times, 0)
	p.cpu = append(p.cpu, 0)
	p.gpuCore = append(p.gpuCore, 0)
	p.gpu = append(p.gpu, 0)
	copy(p.times[idx+1:], p.times[idx:])
	copy(p.cpu[idx+1:], p.cpu[idx:])
	copy(p.gpuCore[idx+1:], p.gpuCore[idx:])
	copy(p.gpu[idx+1:], p.gpu[idx:])
	p.times[idx] = t
	p.cpu[idx] = p.cpu[idx-1]
	p.gpuCore[idx] = p.gpuCore[idx-1]
	p.gpu[idx] = p.gpu[idx-1]
	return idx
}

// relabel moves the first step's start to now. It reports false, and
// changes nothing, when a later step does not start after now.
func (p *profile) relabel(now int64) bool {
	if len(p.times) > 1 && p.times[1] <= now {
		return false
	}
	p.times[0] = now
	return true
}

// hasPrefix reports whether order begins with exactly the jobs of
// prefix, compared by identity.
func hasPrefix(order, prefix []*queued) bool {
	return len(order) >= len(prefix) && slices.Equal(order[:len(prefix)], prefix)
}

// scheduleConservative runs conservative-backfill passes: walk the
// queue in priority order, give each of the first bfDepth jobs a
// reservation, and start those whose reservation is now. A start is
// exactly a reservation over the job's limit window, so it updates the
// base in place instead of rebuilding it.
//
// Reservations are not redone while their result is known. s.work is
// the base plus the reservations of s.resv, and whenever the priority
// order still begins with s.resv a pass goes on after those jobs rather
// than from a fresh copy of the base. Two cases keep work valid
// (DESIGN.md "Reservations that cannot have changed" gives the
// reasons): a start, which is reserved on work as on the base, and an
// event with arrivals only, after a pass that reserved nothing at its
// instant, where the profile only needs its first step moved to the
// new now.
func (s *sim) scheduleConservative() error {
	p := &s.work
	keep := s.carry && p.relabel(s.now)
	s.carry = false
	atNow := false // a reservation at now blocks carrying work to the next event
	for {
		order := s.order()
		if len(order) == 0 {
			return nil
		}
		if !s.baseOK {
			s.rebuildBase()
		}
		// With fairshare a start charges the starter's user, which can
		// move that user's reserved jobs; then the pass starts over.
		if !keep || !hasPrefix(order, s.resv) {
			p.copyFrom(&s.base)
			s.resv = s.resv[:0]
		}
		keep = true
		startedOne := false
		depth := min(len(order), bfDepth)
		for qi := len(s.resv); qi < depth; qi++ {
			q := order[qi]
			n := needOf(q.job)
			start, ok := p.earliestFit(n, q.job.Limit)
			if !ok {
				return fmt.Errorf("sched: job %d (%d cores / %d gpus on %q) cannot be reserved: %w",
					q.job.ID, q.job.Cores(), q.job.GPUs, q.job.Partition, ErrNeverFits)
			}
			if start == s.now && s.fits(q.job) {
				s.start(q)
				s.base.reserve(n, s.now, q.job.Limit)
				p.reserve(n, s.now, q.job.Limit)
				if qi > 0 {
					s.backfills++
				}
				startedOne = true
				break
			}
			p.reserve(n, start, q.job.Limit)
			s.resv = append(s.resv, q)
			atNow = atNow || start == s.now
		}
		if !startedOne {
			s.carry = !atNow
			return nil
		}
	}
}

// jainFairness computes Jain's index over per-user mean bounded
// slowdown: (Σx)² / (n Σx²), in (0, 1]. userHint sizes the per-user
// accumulator map up front (the simulator knows its user count), so
// the render path does not regrow it.
func jainFairness(results []JobResult, userHint int) float64 {
	const tau = 10.0
	if userHint < 8 {
		userHint = 8
	}
	perUser := make(map[string][2]float64, userHint) // sum slowdown, count
	for _, r := range results {
		run := float64(r.Job.Elapsed)
		s := (float64(r.Wait) + run) / math.Max(run, tau)
		if s < 1 {
			s = 1
		}
		agg := perUser[r.Job.User]
		agg[0] += s
		agg[1]++
		perUser[r.Job.User] = agg
	}
	if len(perUser) == 0 {
		return 0
	}
	// Accumulate in sorted user order: float addition is not
	// associative, so summing in (randomized) map order would make the
	// index differ in its last bits from run to run — breaking the
	// byte-identical artifact contract the pipeline promises.
	users := make([]string, 0, len(perUser))
	for u := range perUser {
		users = append(users, u)
	}
	sort.Strings(users)
	var sum, sumsq float64
	for _, u := range users {
		agg := perUser[u]
		mean := agg[0] / agg[1]
		sum += mean
		sumsq += mean * mean
	}
	n := float64(len(perUser))
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (n * sumsq)
}

// meanBoundedSlowdown computes the geometric mean of
// max(1, (wait+run)/max(run, tau)) with tau=10s, the standard
// scheduling-paper responsiveness metric.
func meanBoundedSlowdown(results []JobResult) float64 {
	const tau = 10.0
	if len(results) == 0 {
		return 0
	}
	sumLog := 0.0
	for _, r := range results {
		run := float64(r.Job.Elapsed)
		s := (float64(r.Wait) + run) / math.Max(run, tau)
		if s < 1 {
			s = 1
		}
		sumLog += math.Log(s)
	}
	return math.Exp(sumLog / float64(len(results)))
}
