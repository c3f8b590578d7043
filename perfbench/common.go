package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/serve"
)

// env is what every workload receives: its seed, its measuring budget,
// its size, and (in a traced run) the tracer and layer-metric sink.
type env struct {
	seed   uint64
	budget time.Duration
	tiny   bool
	tr     *tracer
	layer  map[string]float64
	lines  []string
	// renders accumulates {seconds, bodies, bytes} per format (traced).
	renders map[string]*[3]float64
}

func (e *env) traced() bool { return e.tr != nil }

// setLayer records one per-layer metric (traced runs only).
func (e *env) setLayer(name string, v float64) {
	if e.layer != nil {
		e.layer[name] = v
	}
}

// addLayer accumulates into one per-layer metric (traced runs only).
func (e *env) addLayer(name string, v float64) {
	if e.layer != nil {
		e.layer[name] += v
	}
}

// note adds one human-readable metric line to the report printed before
// the result line.
func (e *env) note(name string, v float64, unit string) {
	e.lines = append(e.lines, fmt.Sprintf("%-24s %14.6g %s", name, v, unit))
}

// render renders one body, timing it per format in a traced run.
func (e *env) render(a *core.Artifacts, b body, parent int) ([]byte, error) {
	if !e.traced() {
		return renderBody(a, b)
	}
	sp := e.tr.start("report", "render "+b.key(), parent, 3)
	t0 := time.Now()
	out, err := renderBody(a, b)
	d := time.Since(t0)
	sp.end(nil)
	if e.renders == nil {
		e.renders = map[string]*[3]float64{}
	}
	r := e.renders[b.format]
	if r == nil {
		r = &[3]float64{}
		e.renders[b.format] = r
	}
	r[0] += d.Seconds()
	r[1]++
	r[2] += float64(len(out))
	return out, err
}

// renderLayers reports the mean render time per body of each format
// and the mean body size.
func (e *env) renderLayers() {
	var bytes, n float64
	for _, f := range append(tableFormats, "svg") {
		if r := e.renders[f]; r != nil {
			e.setLayer("report.render_s."+f, r[0]/r[1])
			bytes += r[2]
			n += r[1]
		}
	}
	e.setLayer("report.bytes", ratio(bytes, n))
}

// outcome is what one workload pass measured.
type outcome struct {
	attempted, failed int
	firstErr          error
	setupS            []float64 // every set-up in the pass, seconds
	opMS              []float64 // every operation's latency, ms
	totalS            []float64 // every fixed sequence's wall time, s
	allocBytes        uint64    // heap bytes allocated by the measured ops
	allocOps          int       // operations allocBytes covers
}

// fail counts one failed operation and keeps the first error.
func (o *outcome) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

func (o *outcome) e2e() map[string]float64 {
	m := map[string]float64{
		"setup_s": median(o.setupS),
		"p50_ms":  median(o.opMS),
		"total_s": median(o.totalS),
	}
	if o.allocOps > 0 {
		m["alloc_mb"] = float64(o.allocBytes) / float64(o.allocOps) / 1e6
	}
	return m
}

// memStats reads the runtime's allocation counters.
func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// tableFormats are the formats every table renders in; figures render
// as svg only.
var tableFormats = []string{"json", "txt", "csv", "md"}

// body names one rendered artifact: an experiment in one format.
type body struct{ id, format string }

func (b body) key() string { return b.id + "." + b.format }

// path is the serving URL of the body (optionally against a run).
func (b body) path(run string) string {
	var p string
	if b.format == "svg" {
		p = "/v1/figures/" + b.id
		if run != "" {
			p += "?run=" + run
		}
		return p
	}
	p = "/v1/tables/" + b.id + "?format=" + b.format
	if run != "" {
		p += "&run=" + run
	}
	return p
}

// allBodies lists every artifact in every format, in registry order.
func allBodies() []body {
	var out []body
	for _, e := range core.Registry() {
		if e.Kind == core.KindFigure {
			out = append(out, body{e.ID, "svg"})
			continue
		}
		for _, f := range tableFormats {
			out = append(out, body{e.ID, f})
		}
	}
	return out
}

// renderBody renders one body from a completed run, the way the report
// command and the server do: Experiment.Table plus the format's writer,
// or Experiment.Figure.
func renderBody(a *core.Artifacts, b body) ([]byte, error) {
	exp, err := core.Lookup(b.id)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if exp.Kind == core.KindFigure {
		err = exp.Figure(a, &buf)
	} else {
		var tab *report.Table
		if tab, err = exp.Table(a); err == nil {
			err = writeTable(tab, b.format, &buf)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("rendering %s: %w", b.key(), err)
	}
	return buf.Bytes(), nil
}

func writeTable(t *report.Table, format string, w io.Writer) error {
	switch format {
	case "json":
		return t.WriteJSON(w)
	case "txt":
		return t.WriteASCII(w)
	case "csv":
		return t.WriteCSV(w)
	case "md":
		return t.WriteMarkdown(w)
	}
	return fmt.Errorf("unknown table format %q", format)
}

// etagOf is the strong ETag of a body: its quoted SHA-256.
func etagOf(b []byte) string {
	sum := sha256.Sum256(b)
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

// refSet maps body keys to the ETags of their reference renders.
type refSet map[string]string

// referenceRenders renders bodies from a completed run.
func referenceRenders(a *core.Artifacts, bodies []body) (refSet, error) {
	refs := refSet{}
	for _, b := range bodies {
		out, err := renderBody(a, b)
		if err != nil {
			return nil, err
		}
		refs[b.key()] = etagOf(out)
	}
	return refs, nil
}

// checkBody returns an exchange check that accepts a 200 whose bytes
// equal the reference, or a 304 only when the request's If-None-Match
// carried the reference ETag.
func checkBody(want, sentINM string) func(int, http.Header, []byte) error {
	return func(status int, h http.Header, b []byte) error {
		switch status {
		case http.StatusOK:
			if got := etagOf(b); got != want {
				return fmt.Errorf("body differs from the in-process render")
			}
			if h.Get("ETag") != want {
				return fmt.Errorf("ETag %s does not match the body", h.Get("ETag"))
			}
			if sentINM == want {
				return fmt.Errorf("200 where the matching ETag should give 304")
			}
			return nil
		case http.StatusNotModified:
			if sentINM != want {
				return fmt.Errorf("304 without a matching If-None-Match")
			}
			return nil
		}
		return fmt.Errorf("status %d", status)
	}
}

// replica is one in-process server on a real loopback listener.
type replica struct {
	srv  *serve.Server
	base string
	done chan error
}

// listen reserves a loopback port.
func listen() (net.Listener, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listening on loopback: %w", err)
	}
	return l, "http://" + l.Addr().String(), nil
}

// startReplica builds a server through serve.New and serves it on l.
func startReplica(l net.Listener, base string, opts serve.Options) (*replica, error) {
	srv, err := serve.New(opts)
	if err != nil {
		_ = l.Close() // the listener never served; nothing to report
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	r := &replica{srv: srv, base: base, done: make(chan error, 1)}
	go func() {
		defer func() {
			if p := recover(); p != nil {
				r.done <- fmt.Errorf("server panic: %v", p)
			}
		}()
		r.done <- srv.Serve(l)
	}()
	return r, nil
}

// stop drains the server and waits until its serve loop has returned.
func (r *replica) stop() error {
	sctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := r.srv.Shutdown(sctx)
	select {
	case serr := <-r.done:
		if err == nil {
			err = serr
		}
	case <-sctx.Done():
		if err == nil {
			err = fmt.Errorf("server did not stop: %w", sctx.Err())
		}
	}
	return err
}

// stageKind maps a pipeline stage name onto the layer metric it feeds.
func stageKind(stage string) string {
	switch {
	case strings.HasPrefix(stage, "cohort-table-"):
		return "core.stage.cohort-table_s"
	case strings.HasPrefix(stage, "cohort-"):
		return "population.cohort_s"
	case strings.HasPrefix(stage, "rake-"):
		return "weighting.rake_s"
	case strings.HasPrefix(stage, "trace-"):
		return "core.stage.trace_s"
	case strings.HasPrefix(stage, "modlog-merge"):
		return "core.stage.modlog-merge_s"
	case strings.HasPrefix(stage, "modlog-"):
		return "modlog.gen_s"
	case stage == "jobs-merge" || stage == "panel" || strings.HasPrefix(stage, "sim-"):
		return "core.stage." + stage + "_s"
	}
	return ""
}

// stageLayer is the module a stage belongs to, used as the span's
// category.
func stageLayer(stage string) string {
	switch k := stageKind(stage); {
	case strings.HasPrefix(k, "population"):
		return "population"
	case strings.HasPrefix(k, "weighting"):
		return "weighting"
	case strings.HasPrefix(k, "modlog"):
		return "modlog"
	case strings.HasSuffix(k, "trace_s"):
		return "trace"
	case strings.Contains(k, "sim-"):
		return "sched"
	}
	return "core"
}

// stageTimes collects per-stage wall times reported by a run's
// observer; safe for concurrent use.
type stageTimes struct {
	mu   sync.Mutex
	secs map[string]float64
	tids map[string]int
}

func newStageTimes() *stageTimes {
	return &stageTimes{secs: map[string]float64{}, tids: map[string]int{}}
}

// observer returns a core.StageObserver feeding st and, when tracing,
// one span per stage under parent.
func (st *stageTimes) observer(tr *tracer, parent int) core.StageObserver {
	return func(stage string, seconds float64) {
		st.mu.Lock()
		st.secs[stage] += seconds
		tid, ok := st.tids[stage]
		if !ok {
			tid = 100 + len(st.tids)
			st.tids[stage] = tid
		}
		st.mu.Unlock()
		tr.complete(stageLayer(stage), stage, parent, tid, time.Duration(seconds*float64(time.Second)))
	}
}

// sum returns the total of all stage times and the per-kind totals.
func (st *stageTimes) sum() (total float64, kinds map[string]float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	names := make([]string, 0, len(st.secs))
	for n := range st.secs {
		names = append(names, n)
	}
	sort.Strings(names)
	kinds = map[string]float64{}
	for _, n := range names {
		total += st.secs[n]
		if k := stageKind(n); k != "" {
			kinds[k] += st.secs[n]
		}
	}
	return total, kinds
}
