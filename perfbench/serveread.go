package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/serve"
)

// Read traffic shape. The offered rate sits well below the knee this
// benchmark measured on 2 vCPUs (12k–16k rps), so the median reflects
// service time rather than queueing. The popularity exponent follows
// Breslau et al., "Web Caching and Zipf-like Distributions: Evidence and
// Implications" (INFOCOM 1999), whose proxy traces fit Zipf-like laws
// with exponents below 1 (about 0.64 to 0.83). The revalidation and
// wrong-ETag shares are assumptions, not observed traffic: they only
// make both the 304 and the 200 answer to If-None-Match common enough
// to weigh in every run.
const (
	readRate       = 2000.0 // offered GETs per second in the open loop
	readTinyRate   = 400.0
	readRevalidate = 0.20 // assumed share sent with the body's current ETag: expects 304
	readStaleTag   = 0.05 // assumed share sent with a wrong ETag: expects 200
	readZipfS      = 0.8  // popularity skew over the bodies
	burstRequests  = 8000 // GETs per closed-loop burst
	bursts         = 8
	// maxRPSLimitMS is the p99 latency limit the traced rate search
	// applies at each stepped rate.
	maxRPSLimitMS = 10.0
)

// popularitySeed fixes which bodies are popular. It is not the workload
// seed: body sizes differ 100-fold, so a seeded ranking would move the
// per-request cost from seed to seed.
const popularitySeed = 2024

// readMix generates n GET exchanges over bodies: skewed popularity (a
// fixed permutation of the bodies ranked by a Zipf law), a share of
// If-None-Match revalidations, each checked against refs. The seed
// draws which body each request reads and which revalidate.
func readMix(seed uint64, n int, bodies []body, refs refSet) []exchange {
	order := append([]body(nil), bodies...)
	rng.Shuffle(rng.New(popularitySeed), order)
	r := rng.New(seed).SplitNamed("read-mix")
	z := rng.NewZipf(len(order), readZipfS)
	xs := make([]exchange, n)
	for i := range xs {
		b := order[z.Rank(r)]
		want := refs[b.key()]
		inm := ""
		switch u := r.Float64(); {
		case u < readRevalidate:
			inm = want
		case u < readRevalidate+readStaleTag:
			inm = `"0000"`
		}
		x := exchange{method: http.MethodGet, path: b.path(""), check: checkBody(want, inm)}
		if inm != "" {
			x.header = map[string]string{"If-None-Match": inm}
		}
		xs[i] = x
	}
	return xs
}

// serveSeed is the study seed of the serving workloads' base config.
// Tuning seeds all serve study seed 7, so their figures do not swing
// with the base run's cost; a held-out workload seed picks a seed of the
// held-out pool, which tuning never served.
func serveSeed(seed uint64) uint64 {
	if seed >= heldOutFrom {
		return heldOutPool[seed%uint64(len(heldOutPool))]
	}
	return tuningPool[0]
}

// readConfig is the base configuration every replica serves.
func readConfig(seed uint64, tiny bool) core.Config {
	if tiny {
		return tinyConfig(serveSeed(seed))
	}
	cfg := core.DefaultConfig()
	cfg.Seed = serveSeed(seed)
	return cfg
}

// warmReplica starts a replica, runs its base pipeline and renders
// every body once through HTTP, checking each against refs. It returns
// the replica and the bodies checked.
func warmReplica(c *http.Client, opts serve.Options, bodies []body, refs refSet, o *outcome) (*replica, error) {
	l, base, err := listen()
	if err != nil {
		return nil, err
	}
	r, err := startReplica(l, base, opts)
	if err != nil {
		return nil, err
	}
	if err := r.srv.Warm(); err != nil {
		return r, fmt.Errorf("warming the base run: %w", err)
	}
	for _, b := range bodies {
		o.attempted++
		if _, _, _, err := do(c, base, exchange{method: http.MethodGet, path: b.path(""), check: checkBody(refs[b.key()], "")}); err != nil {
			o.fail(err)
		}
	}
	return r, nil
}

// runServeRead is the warm read path: open-loop Poisson GETs against one
// replica whose base run and every rendered body are already cached.
func runServeRead(e *env) (*outcome, error) {
	o := &outcome{}
	cfg := readConfig(e.seed, e.tiny)
	bodies := allBodies()
	// Reference renders, outside set-up and the timed region.
	arts, err := core.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	refs, err := referenceRenders(arts, bodies)
	if err != nil {
		return nil, err
	}
	pages, err := barePages(arts, bodies)
	if err != nil {
		return nil, err
	}
	arts = nil

	clients := newClients(2)
	defer closeClients(clients)
	// Set-up, three times on fresh replicas: start, run the base
	// pipeline, render every body once. The last replica is measured.
	var r *replica
	for i := 0; i < 3; i++ {
		if r != nil {
			if err := r.stop(); err != nil {
				return nil, err
			}
		}
		sp := e.tr.start("serve", "set-up replica", 0, 1)
		t0 := time.Now()
		r, err = warmReplica(clients[0], serve.Options{BaseConfig: cfg}, bodies, refs, o)
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		sp.end(nil)
		if err != nil {
			if r != nil {
				err = errors.Join(err, r.stop())
			}
			return nil, err
		}
	}
	defer func() {
		if serr := r.stop(); serr != nil && o.firstErr == nil {
			o.fail(serr)
		}
	}()

	var before promSnap
	if e.traced() {
		if before, err = scrape(clients[0], r.base); err != nil {
			return nil, err
		}
	}

	// Open loop at a fixed rate for most of the budget.
	rate := readRate
	if e.tiny {
		rate = readTinyRate
	}
	due := poissonSchedule(e.seed, rate, e.budget*7/10)
	xs := readMix(e.seed, len(due), bodies, refs)
	var depth []promSnap
	stopPoll := make(chan struct{})
	var poll group
	if e.traced() {
		poll.Go(func() error {
			c := newClients(1)
			defer closeClients(c)
			for {
				select {
				case <-stopPoll:
					return nil
				case <-time.After(200 * time.Millisecond):
				}
				s, err := scrape(c[0], r.base)
				if err != nil {
					return err
				}
				depth = append(depth, s)
			}
		})
	}
	runtime.GC()
	sp := e.tr.start("loadgen", fmt.Sprintf("open loop %.0f rps", rate), 0, 1)
	m0 := memStats()
	lr := openLoop(clients, r.base, due, xs)
	m1 := memStats()
	sp.end(map[string]any{"requests": len(due)})
	close(stopPoll)
	if err := poll.Wait(); err != nil {
		return nil, fmt.Errorf("polling metrics: %w", err)
	}
	var after promSnap
	if e.traced() {
		if after, err = scrape(clients[0], r.base); err != nil {
			return nil, err
		}
	}
	o.attempted += len(due)
	for i := 0; i < lr.failed; i++ {
		o.fail(lr.firstErr)
	}
	o.opMS = lr.latMS

	// Closed-loop bursts: a fixed batch of GETs from one client as fast
	// as the replica answers; total_s is the median burst time. One
	// connection leaves a CPU to the replica, which keeps the figure
	// from depending on how the two compete.
	n := burstRequests
	if e.tiny {
		n = 200
	}
	mixes := make([][]exchange, bursts)
	var burstAlloc uint64
	for i := range mixes {
		mixes[i] = readMix(e.seed+uint64(i)+1, n, bodies, refs)
		runtime.GC()
		sp := e.tr.start("loadgen", "closed-loop burst", 0, 1)
		b0 := memStats()
		br := closedLoop(clients[:1], r.base, mixes[i])
		b1 := memStats()
		sp.end(map[string]any{"requests": n})
		burstAlloc += b1.TotalAlloc - b0.TotalAlloc
		o.attempted += n
		for j := 0; j < br.failed; j++ {
			o.fail(br.firstErr)
		}
		o.totalS = append(o.totalS, br.elapsed.Seconds())
	}
	// alloc_mb is the replica's own share: the same bursts replayed
	// against a bare handler of the same bytes give what the client and
	// a minimal net/http server allocate, which is taken off.
	bare, err := bareAlloc(mixes, pages)
	if err != nil {
		return nil, err
	}
	ops := bursts * n
	o.allocBytes, o.allocOps = burstAlloc-min(bare, burstAlloc), ops
	e.note("read_gross_alloc_mb", float64(burstAlloc)/float64(ops)/1e6, "MB")
	e.note("read_bare_alloc_mb", float64(bare)/float64(ops)/1e6, "MB")

	pct, tv, samples, _ := tail(lr.latMS)
	e.note("read_p50_ms", median(lr.latMS), "ms")
	if percentileOK(99, samples) {
		e.note("read_p99_ms", quantile(lr.latMS, 0.99), "ms")
	}
	if pct != 99 {
		e.note(fmt.Sprintf("read_p%g_ms", pct), tv, "ms")
	}
	e.note("read_samples", float64(samples), "count")
	e.note("read_burst_rps", float64(n)/median(o.totalS), "1/s")
	e.note("loadgen_lateness_p99_ms", quantile(lr.latenessMS, 0.99), "ms")
	e.note("loadgen_backlog_max", float64(lr.backlogMax), "count")

	if e.traced() {
		serveLayers(e, before, after)
		e.setLayer("serve.queue_depth_max", maxGauge(depth, "rcpt_admission_queue_depth", map[string]string{"class": "render"}))
		e.setLayer("serve.client_gap_s", clientGap(lr, before, after))
		e.setLayer("read.tail_ms", tv)
		e.setLayer("read.tail_pct", pct)
		e.setLayer("read.samples", float64(samples))
		e.setLayer("loadgen.lateness_p99_ms", quantile(lr.latenessMS, 0.99))
		e.setLayer("loadgen.backlog_max", float64(lr.backlogMax))
		e.setLayer("go.gc_cycles", float64(m1.NumGC-m0.NumGC))
		maxRPS, err := searchMaxRPS(e, clients, r.base, bodies, refs, o)
		if err != nil {
			return nil, err
		}
		e.setLayer("read.max_rps", maxRPS)
	}
	return o, nil
}

// barePage is one pre-rendered body with the headers a bare server
// sends for it.
type barePage struct {
	body      []byte
	etag, len string
}

// barePages renders bodies from a completed run, keyed by request URI.
func barePages(a *core.Artifacts, bodies []body) (map[string]barePage, error) {
	pages := map[string]barePage{}
	for _, b := range bodies {
		out, err := renderBody(a, b)
		if err != nil {
			return nil, err
		}
		pages[b.path("")] = barePage{out, etagOf(out), strconv.Itoa(len(out))}
	}
	return pages, nil
}

// bareAlloc replays each mix in a closed loop from one client against a
// bare net/http handler that answers from pages with the replica's ETag
// rules, and returns the bytes allocated over all of them: the client's
// requests, reads and checks plus the least any server of these bytes
// allocates.
func bareAlloc(mixes [][]exchange, pages map[string]barePage) (uint64, error) {
	l, base, err := listen()
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p, ok := pages[r.URL.RequestURI()]
		if !ok {
			http.NotFound(w, r)
			return
		}
		h := w.Header()
		h["Etag"] = []string{p.etag}
		if r.Header.Get("If-None-Match") == p.etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		h["Content-Length"] = []string{p.len}
		_, _ = w.Write(p.body) // a failed write shows as a failed exchange
	})}
	done := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- fmt.Errorf("bare server panic: %v", p)
			}
		}()
		done <- srv.Serve(l)
	}()
	clients := newClients(1)
	var total uint64
	var failed error
	for _, xs := range mixes {
		runtime.GC()
		m0 := memStats()
		lr := closedLoop(clients, base, xs)
		m1 := memStats()
		total += m1.TotalAlloc - m0.TotalAlloc
		if lr.failed > 0 && failed == nil {
			failed = fmt.Errorf("bare replay: %w", lr.firstErr)
		}
	}
	closeClients(clients)
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serr := srv.Shutdown(sctx)
	if err := <-done; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	return total, errors.Join(failed, serr)
}

// clientGap is the mean time a GET spent outside its handler: client
// send-to-answer time minus the server's mean handler time.
func clientGap(lr loadResult, before, after promSnap) float64 {
	var handler, count float64
	for _, route := range []string{"GET /v1/tables/{id}", "GET /v1/figures/{id}"} {
		l := map[string]string{"route": route}
		handler += delta(before, after, "rcpt_http_request_seconds_sum", l)
		count += delta(before, after, "rcpt_http_request_seconds_count", l)
	}
	var svc float64
	for _, v := range lr.svcMS {
		svc += v
	}
	return svc/1e3/float64(len(lr.svcMS)) - ratio(handler, count)
}

// searchMaxRPS steps the offered rate up until a step misses the p99
// limit, fails a request, or ends with a backlog that grew; it returns
// the highest rate that met the limit.
func searchMaxRPS(e *env, clients []*http.Client, base string, bodies []body, refs refSet, o *outcome) (float64, error) {
	rates := []float64{1000, 2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000, 20000}
	best := 0.0
	for i, rate := range rates {
		// Long enough for at least 1000 samples, so p99 has ten beyond it.
		dur := time.Duration(float64(time.Second) * max(1, 1000/rate))
		if e.tiny {
			dur /= 10
		}
		due := poissonSchedule(e.seed+uint64(100+i), rate, dur)
		xs := readMix(e.seed+uint64(100+i), len(due), bodies, refs)
		sp := e.tr.start("loadgen", fmt.Sprintf("rate step %.0f rps", rate), 0, 1)
		lr := openLoop(clients, base, due, xs)
		p99 := quantile(lr.latMS, 0.99)
		sp.end(map[string]any{"p99_ms": p99, "backlog_end": lr.backlogEnd})
		o.attempted += len(due)
		for j := 0; j < lr.failed; j++ {
			o.fail(lr.firstErr)
		}
		if lr.failed > 0 || p99 > maxRPSLimitMS || lr.backlogEnd > 2*len(clients) {
			break
		}
		best = rate
	}
	return best, nil
}
