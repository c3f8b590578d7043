package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// group runs goroutines, waits for them, and keeps the first error; a
// panic in one is reported as its error rather than killing the run.
type group struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

func (g *group) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
}

func (g *group) recoverPanic() {
	if r := recover(); r != nil {
		g.fail(fmt.Errorf("panic: %v", r))
	}
}

func (g *group) Go(f func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer g.recoverPanic()
		if err := f(); err != nil {
			g.fail(err)
		}
	}()
}

// Wait blocks until every goroutine has returned and reports the first
// error.
func (g *group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// newClients builds n HTTP clients of one keep-alive connection each:
// the load never holds more connections than clients.
func newClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
			Timeout: 60 * time.Second,
		}
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// poissonSchedule returns the due offsets of a Poisson arrival process
// of the given rate over dur: exponential gaps drawn from a stream of
// seed, so the same seed always yields the same schedule.
func poissonSchedule(seed uint64, rate float64, dur time.Duration) []time.Duration {
	r := rng.New(seed).SplitNamed("arrivals")
	var out []time.Duration
	t := 0.0
	for {
		t += r.Exp(rate)
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// exchange is one request the generator sends and the check of its
// answer.
type exchange struct {
	method, path string
	body         []byte
	header       map[string]string
	// check validates the response; nil means any 2xx/304 is fine.
	check func(status int, h http.Header, body []byte) error
}

// do sends one exchange and checks its answer.
func do(c *http.Client, base string, x exchange) (int, http.Header, []byte, error) {
	var rd io.Reader
	if x.body != nil {
		rd = bytes.NewReader(x.body)
	}
	req, err := http.NewRequest(x.method, base+x.path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range x.header {
		req.Header.Set(k, v)
	}
	if x.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s %s: %w", x.method, x.path, err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; a close error changes nothing
	if err != nil {
		return resp.StatusCode, resp.Header, nil, fmt.Errorf("%s %s: reading body: %w", x.method, x.path, err)
	}
	if x.check != nil {
		if err := x.check(resp.StatusCode, resp.Header, body); err != nil {
			return resp.StatusCode, resp.Header, body, fmt.Errorf("%s %s: %w", x.method, x.path, err)
		}
	} else if resp.StatusCode >= 300 && resp.StatusCode != http.StatusNotModified {
		return resp.StatusCode, resp.Header, body, fmt.Errorf("%s %s: status %d", x.method, x.path, resp.StatusCode)
	}
	return resp.StatusCode, resp.Header, body, nil
}

// loadResult is what one open- or closed-loop phase observed.
type loadResult struct {
	latMS      []float64 // per request, from when it was due
	svcMS      []float64 // per request, from when it was sent
	latenessMS []float64 // how late the generator sent each request
	backlogMax int       // most requests due but not yet completed
	backlogEnd int       // backlog when the last request fell due
	failed     int
	firstErr   error
	elapsed    time.Duration
}

// openLoop sends xs[i] at start+due[i] regardless of how earlier
// requests fare, over as many connections as clients. Latency runs
// from when a request was due, so a stall is charged to every request
// queued behind it.
func openLoop(clients []*http.Client, base string, due []time.Duration, xs []exchange) loadResult {
	type item struct {
		i   int
		due time.Time
	}
	// Sized to the whole schedule so the dispatcher never blocks: a
	// backlog shows up as latency, not as a late generator.
	jobs := make(chan item, len(due))
	var completed atomic.Int64
	res := loadResult{latMS: make([]float64, len(due)), svcMS: make([]float64, len(due)), latenessMS: make([]float64, len(due))}
	failed := make([]int, len(clients))
	errs := make([]error, len(clients))
	var g group
	for w := range clients {
		w := w
		g.Go(func() error {
			for it := range jobs {
				sent := time.Now()
				_, _, _, err := do(clients[w], base, xs[it.i])
				res.latMS[it.i] = float64(time.Since(it.due).Nanoseconds()) / 1e6
				res.svcMS[it.i] = float64(time.Since(sent).Nanoseconds()) / 1e6
				if err != nil {
					failed[w]++
					if errs[w] == nil {
						errs[w] = err
					}
				}
				completed.Add(1)
			}
			return nil
		})
	}
	start := time.Now()
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		res.latenessMS[i] = float64(time.Since(at).Nanoseconds()) / 1e6
		jobs <- item{i, at}
		if b := int(int64(i+1) - completed.Load()); b > res.backlogMax {
			res.backlogMax = b
		}
	}
	res.backlogEnd = int(int64(len(due)) - completed.Load())
	close(jobs)
	if err := g.Wait(); err != nil && res.firstErr == nil {
		res.firstErr = err
	}
	res.elapsed = time.Since(start)
	for w := range clients {
		res.failed += failed[w]
		if res.firstErr == nil {
			res.firstErr = errs[w]
		}
	}
	return res
}

// closedLoop sends xs as fast as the clients' connections allow, each
// client waiting for one answer before sending its next request.
func closedLoop(clients []*http.Client, base string, xs []exchange) loadResult {
	var next atomic.Int64
	res := loadResult{latMS: make([]float64, len(xs))}
	failed := make([]int, len(clients))
	errs := make([]error, len(clients))
	var g group
	start := time.Now()
	for w := range clients {
		w := w
		g.Go(func() error {
			for {
				i := int(next.Add(1) - 1)
				if i >= len(xs) {
					return nil
				}
				t0 := time.Now()
				_, _, _, err := do(clients[w], base, xs[i])
				res.latMS[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				if err != nil {
					failed[w]++
					if errs[w] == nil {
						errs[w] = err
					}
				}
			}
		})
	}
	if err := g.Wait(); err != nil {
		res.firstErr = err
	}
	res.elapsed = time.Since(start)
	for w := range clients {
		res.failed += failed[w]
		if res.firstErr == nil {
			res.firstErr = errs[w]
		}
	}
	return res
}
