package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/serve"
)

const (
	ringReplicas = 3
	ringVNodes   = 128 // virtual nodes per replica on the hash ring
	ringPosts    = 2   // POST /v1/run requests in the last round
	ringSecret   = "rcptbench"
)

// startRing boots ringReplicas replicas on loopback listeners, each
// naming the full membership, and waits until every one sees the whole
// ring healthy and has heard gossip from every peer. It returns the
// replicas and how long convergence took once the last replica was
// serving.
func startRing(c *http.Client, cfg core.Config) ([]*replica, time.Duration, error) {
	ls := make([]net.Listener, ringReplicas)
	members := make([]string, ringReplicas)
	for i := range ls {
		l, url, err := listen()
		if err != nil {
			for _, l := range ls[:i] {
				_ = l.Close() // never served; nothing to report
			}
			return nil, 0, err
		}
		ls[i], members[i] = l, url
	}
	var reps []*replica
	for i := range ls {
		r, err := startReplica(ls[i], members[i], serve.Options{
			BaseConfig: cfg,
			Cluster: &cluster.Options{
				Self:          members[i],
				Peers:         members,
				Secret:        ringSecret,
				VirtualNodes:  ringVNodes,
				ProbeInterval: 50 * time.Millisecond,
				ProbeTimeout:  500 * time.Millisecond,
				LeaseTTL:      2 * time.Second,
			},
		})
		if err != nil {
			for _, l := range ls[i+1:] {
				_ = l.Close() // never served; nothing to report
			}
			return nil, 0, errors.Join(err, stopAll(reps))
		}
		reps = append(reps, r)
	}
	t0 := time.Now()
	deadline := t0.Add(10 * time.Second)
	for _, r := range reps {
		for {
			ok, err := ringReady(c, r.base)
			if err != nil {
				return nil, 0, errors.Join(err, stopAll(reps))
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return nil, 0, errors.Join(errors.New("ring never converged"), stopAll(reps))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return reps, time.Since(t0), nil
}

// ringReady reports whether a replica's /readyz sees every member
// healthy and it has received gossip from every peer firsthand.
func ringReady(c *http.Client, base string) (bool, error) {
	_, _, b, err := do(c, base, exchange{method: http.MethodGet, path: "/readyz"})
	if err != nil {
		return false, err
	}
	var rz struct {
		Healthy int `json:"quorumHealthy"`
		Total   int `json:"quorumTotal"`
	}
	if err := json.Unmarshal(b, &rz); err != nil {
		return false, fmt.Errorf("readyz: %w", err)
	}
	if rz.Total != ringReplicas || rz.Healthy != rz.Total {
		return false, nil
	}
	m, err := scrape(c, base)
	if err != nil {
		return false, err
	}
	return m.sum("rcpt_cluster_gossip_received_total", nil) >= ringReplicas-1, nil
}

func stopAll(reps []*replica) error {
	var errs []error
	for _, r := range reps {
		errs = append(errs, r.stop())
	}
	return errors.Join(errs...)
}

func scrapeAll(c *http.Client, reps []*replica) ([]promSnap, error) {
	out := make([]promSnap, len(reps))
	for i, r := range reps {
		s, err := scrape(c, r.base)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// runRingCold is the cluster path: a cold three-replica loopback ring;
// one client walks every body on each replica in turn until each
// replica has served each body, and the last round adds a few
// parameterized runs spread over the replicas.
func runRingCold(e *env) (*outcome, error) {
	o := &outcome{}
	cfg := readConfig(e.seed, e.tiny)
	bodies := allBodies()
	arts, err := core.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	refs, err := referenceRenders(arts, bodies)
	if err != nil {
		return nil, err
	}
	arts = nil
	r := rng.New(e.seed).SplitNamed("ring")
	order := append([]body(nil), bodies...)
	rng.Shuffle(r, order)
	// Each POST names a config no replica has run yet: POST /v1/run
	// computes on the replica it reaches (cluster singleflight covers
	// base-run renders only), so a repeated config would be a second,
	// expected compute rather than a fault.
	posts := make([]core.Config, ringPosts)
	seen := map[string]bool{cfg.Fingerprint(): true}
	prev := cfg
	for i := range posts {
		for seen[prev.Fingerprint()] {
			prev = cohortChange(r, prev, cohortParams[r.Intn(len(cohortParams))])
		}
		posts[i] = prev
		seen[prev.Fingerprint()] = true
	}

	// One keep-alive connection: at most one idle connection is kept,
	// so moving on to the next replica retires the previous one.
	c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConns: 1, DisableCompression: true}, Timeout: 60 * time.Second}
	defer c.CloseIdleConnections()

	var converge []float64
	began := time.Now()
	for round := 0; ; round++ {
		sp := e.tr.start("cluster", "start ring", 0, 1)
		t0 := time.Now()
		reps, conv, err := startRing(c, cfg)
		if err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		converge = append(converge, conv.Seconds())
		sp.end(nil)
		last, err := ringRound(e, c, reps, order, refs, posts, time.Since(began), o)
		if serr := stopAll(reps); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		if last {
			break
		}
	}
	e.note("ring_fill_s", median(o.totalS), "s")
	e.note("ring_p50_ms", median(o.opMS), "ms")
	e.setLayer("cluster.converge_s", median(converge))
	return o, nil
}

// ringRound walks every body on every replica of a fresh ring; the
// round that exhausts the budget also sends the POSTs. It checks that
// every replica served the reference bytes and that the ring computed
// each fingerprint exactly once.
func ringRound(e *env, c *http.Client, reps []*replica, order []body, refs refSet, posts []core.Config, elapsed time.Duration, o *outcome) (last bool, err error) {
	before, err := scrapeAll(c, reps)
	if err != nil {
		return false, err
	}
	runtime.GC()
	m0 := memStats()
	t0 := time.Now()
	n := 0
	// Replica by replica, each walking every body, so the client's one
	// connection changes replica only between walks. The base run's
	// authority walks last: the first walk fills every body through it
	// (rendering each), the second fills from its cache, and the
	// authority then serves its own — whichever ports the ring drew.
	members := make([]string, len(reps))
	for i, rp := range reps {
		members[i] = rp.base
	}
	owner := cluster.NewRing(members, ringVNodes).Owner(reps[0].srv.BaseFingerprint())
	walk := make([]*replica, 0, len(reps))
	for _, rp := range reps {
		if rp.base != owner {
			walk = append(walk, rp)
		}
	}
	for _, rp := range reps {
		if rp.base == owner {
			walk = append(walk, rp)
		}
	}
	for k, rp := range walk {
		for _, b := range order {
			sp := e.tr.start("serve", "GET "+b.key(), 0, 2+k)
			ts := time.Now()
			_, _, _, err := do(c, rp.base, exchange{method: http.MethodGet, path: b.path(""), check: checkBody(refs[b.key()], "")})
			d := time.Since(ts)
			sp.end(nil)
			o.attempted++
			n++
			if err != nil {
				o.fail(err)
				continue
			}
			o.opMS = append(o.opMS, float64(d.Nanoseconds())/1e6)
		}
	}
	fill := time.Since(t0)
	m1 := memStats()
	o.totalS = append(o.totalS, fill.Seconds())
	o.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	o.allocOps += n

	// At least two rounds, so set-up is measured more than once.
	last = len(o.totalS) >= 2 && elapsed+2*(fill+time.Duration(o.setupS[len(o.setupS)-1]*float64(time.Second))) > e.budget
	fingerprints := map[string]bool{reps[0].srv.BaseFingerprint(): true}
	if last {
		for i, cfg := range posts {
			payload, err := json.Marshal(paramsOf(cfg))
			if err != nil {
				return false, err
			}
			want := cfg.Fingerprint()
			fingerprints[want] = true
			sp := e.tr.start("serve", "POST /v1/run", 0, 2+i%len(reps))
			ts := time.Now()
			_, _, b, err := do(c, reps[i%len(reps)].base, exchange{method: http.MethodPost, path: "/v1/run", body: payload})
			sp.end(nil)
			e.note("ring_post_s", time.Since(ts).Seconds(), "s")
			o.attempted++
			if err != nil {
				o.fail(err)
				continue
			}
			var sum struct {
				Fingerprint string `json:"fingerprint"`
			}
			if err := json.Unmarshal(b, &sum); err != nil || sum.Fingerprint != want {
				o.fail(fmt.Errorf("POST /v1/run answered fingerprint %q, want %s", sum.Fingerprint, want))
			}
		}
	}
	after, err := scrapeAll(c, reps)
	if err != nil {
		return false, err
	}
	computes := 0.0
	for i := range reps {
		computes += delta(before[i], after[i], "rcpt_pipeline_runs_total", nil)
		if last {
			clusterLayers(e, before[i], after[i])
		}
	}
	o.attempted++
	if int(computes) != len(fingerprints) {
		o.fail(fmt.Errorf("ring computed %v times for %d distinct fingerprints", computes, len(fingerprints)))
	}
	if last {
		e.setLayer("cluster.fingerprints", float64(len(fingerprints)))
		e.setLayer("go.gc_cycles", float64(m1.NumGC-m0.NumGC))
	}
	return last, nil
}
