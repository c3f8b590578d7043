package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/table"
	"repro/internal/trace"
)

// tinyCfg is a pipeline configuration small enough for many runs per
// test, with two trace years and two replicas each so the dispatcher
// has four stages to spread.
func tinyCfg() core.Config {
	return core.Config{
		Seed:       7,
		N2011:      20,
		N2024:      24,
		TraceYears: []int{2011, 2012},
		SimYear:    2011,
		Policy:     sched.EASYBackfill,
		TraceScale: 2,
		Workers:    4,
	}
}

// stagePeer is a correct fake peer: it executes stage requests exactly
// as a live replica's /v1/peer/stage handler does.
func stagePeer(t *testing.T, calls *atomic.Int64) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/peer/stage", func(w http.ResponseWriter, r *http.Request) {
		if calls != nil {
			calls.Add(1)
		}
		var sr StageRequest
		if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		tab, err := core.TraceReplicaTable(sr.Config, sr.Year, sr.Rep)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		h, err := tab.Hash()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		var buf bytes.Buffer
		if err := table.EncodeStream[trace.Job](&buf, trace.JobCodec{}, tab); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set(TableHashHeader, strconv.FormatUint(h, 16))
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := w.Write(buf.Bytes()); err != nil {
			return
		}
	})
	return httptest.NewServer(mux)
}

// testCluster builds a two-member cluster: an unreachable self plus the
// given peer URL. Probing is not started; never-probed peers count as
// healthy, which is exactly the mid-steal-death scenario.
func testCluster(t *testing.T, peerURL string) *Cluster {
	t.Helper()
	self := "http://127.0.0.1:1"
	c, err := New(Options{
		Self:  self,
		Peers: []string{self, peerURL},
		Now:   time.Now,
	}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// localOf is the in-process compute a pipeline run hands TraceStage.
func localOf(cfg core.Config, year, rep int) func() (trace.JobTable, error) {
	return func() (trace.JobTable, error) { return core.TraceReplicaTable(cfg, year, rep) }
}

func jobRowsOf(t *testing.T, tab trace.JobTable) []trace.Job {
	t.Helper()
	rows, err := table.Rows[trace.Job](tab)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestTraceStageRemoteMatchesLocal: a stage stolen to a live peer
// returns a table byte-identical to local compute. Self is made busy
// first so the least-loaded choice actually picks the peer.
func TestTraceStageRemoteMatchesLocal(t *testing.T) {
	var calls atomic.Int64
	srv := stagePeer(t, &calls)
	defer srv.Close()
	c := testCluster(t, srv.URL)
	c.selfInflight.Add(1) // pretend a local stage is already running
	defer c.selfInflight.Add(-1)

	cfg := tinyCfg()
	got, err := c.TraceStage(context.Background(), cfg, 2012, 1, localOf(cfg, 2012, 1))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("peer stage calls = %d, want 1", calls.Load())
	}
	want, err := core.TraceReplicaTable(cfg, 2012, 1)
	if err != nil {
		t.Fatal(err)
	}
	wr, gr := jobRowsOf(t, want), jobRowsOf(t, got)
	if len(wr) == 0 || len(wr) != len(gr) {
		t.Fatalf("row counts differ: local %d, remote %d", len(wr), len(gr))
	}
	for i := range wr {
		if wr[i] != gr[i] {
			t.Fatalf("row %d differs between local and remote compute", i)
		}
	}
}

// TestTraceStagePeerDeadFallsBack: a peer that is gone entirely
// (connection refused) costs latency, not bytes — the dispatcher
// recomputes locally and returns an identical table with no error.
func TestTraceStagePeerDeadFallsBack(t *testing.T) {
	srv := stagePeer(t, nil)
	url := srv.URL
	srv.Close() // dead before the first steal
	c := testCluster(t, url)
	c.selfInflight.Add(1)
	defer c.selfInflight.Add(-1)

	cfg := tinyCfg()
	got, err := c.TraceStage(context.Background(), cfg, 2011, 0, localOf(cfg, 2011, 0))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.TraceReplicaTable(cfg, 2011, 0)
	if err != nil {
		t.Fatal(err)
	}
	wh, _ := want.Hash()
	gh, _ := got.Hash()
	if wh != gh {
		t.Fatalf("fallback table hash %x differs from local %x", gh, wh)
	}
	if v := c.steals.With("fallback").Value(); v != 1 {
		t.Fatalf("fallback metric = %d, want 1", v)
	}
}

// TestTraceStageTruncatedBodyFallsBack: a peer dying mid-response
// leaves a short envelope; the integrity check converts that into a
// local recompute, never into wrong rows.
func TestTraceStageTruncatedBodyFallsBack(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/peer/stage", func(w http.ResponseWriter, r *http.Request) {
		var sr StageRequest
		if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		tab, err := core.TraceReplicaTable(sr.Config, sr.Year, sr.Rep)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		h, _ := tab.Hash()
		var buf bytes.Buffer
		if err := table.EncodeStream[trace.Job](&buf, trace.JobCodec{}, tab); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set(TableHashHeader, strconv.FormatUint(h, 16))
		if _, err := w.Write(buf.Bytes()[:buf.Len()/2]); err != nil { // die mid-body
			return
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := testCluster(t, srv.URL)
	c.selfInflight.Add(1)
	defer c.selfInflight.Add(-1)

	cfg := tinyCfg()
	got, err := c.TraceStage(context.Background(), cfg, 2011, 1, localOf(cfg, 2011, 1))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.TraceReplicaTable(cfg, 2011, 1)
	wh, _ := want.Hash()
	gh, _ := got.Hash()
	if wh != gh {
		t.Fatalf("table after truncated steal differs: %x vs %x", gh, wh)
	}
}

// TestTraceStageHashMismatchRejected: a well-formed envelope whose
// declared content hash disagrees with the decoded table is damaged
// goods; the client must fall back rather than trust it.
func TestTraceStageHashMismatchRejected(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/peer/stage", func(w http.ResponseWriter, r *http.Request) {
		var sr StageRequest
		if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		tab, err := core.TraceReplicaTable(sr.Config, sr.Year, sr.Rep)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		var buf bytes.Buffer
		if err := table.EncodeStream[trace.Job](&buf, trace.JobCodec{}, tab); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set(TableHashHeader, "deadbeef") // wrong on purpose
		if _, err := w.Write(buf.Bytes()); err != nil {
			return
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := testCluster(t, srv.URL)
	c.selfInflight.Add(1)
	defer c.selfInflight.Add(-1)

	cfg := tinyCfg()
	if _, err := c.TraceStage(context.Background(), cfg, 2011, 0, localOf(cfg, 2011, 0)); err != nil {
		t.Fatal(err) // fallback must succeed silently
	}
	if v := c.peerFills.With("integrity").Value(); v != 0 {
		t.Fatalf("artifact integrity counter moved on a stage steal: %d", v)
	}
	if v := c.steals.With("fallback").Value(); v != 1 {
		t.Fatalf("fallback metric = %d, want 1", v)
	}
}

// TestRemoteStageErrorSurfaces: when the remote attempt fails AND the
// local recompute fails (here: a stage outside the config's graph),
// the error chain carries the typed RemoteStageError with peer, stage,
// and attempt attribution.
func TestRemoteStageErrorSurfaces(t *testing.T) {
	srv := stagePeer(t, nil)
	defer srv.Close()
	c := testCluster(t, srv.URL)
	c.selfInflight.Add(1)
	defer c.selfInflight.Add(-1)

	_, err := c.TraceStage(context.Background(), tinyCfg(), 1999, 0, localOf(tinyCfg(), 1999, 0))
	if err == nil {
		t.Fatal("stage for an out-of-graph year succeeded")
	}
	var rse *RemoteStageError
	if !errors.As(err, &rse) {
		t.Fatalf("err = %v, want a *RemoteStageError in the chain", err)
	}
	if rse.Peer != normalizePeer(srv.URL) || rse.Stage != "trace-1999" || rse.Attempt != 1 {
		t.Fatalf("attribution = %+v", rse)
	}
}

// TestRemoteStageErrorThroughGraph: a dispatched stage failure keeps
// its cluster attribution when the parallel graph wraps it — callers
// unwrap *parallel.StageError (which stage, which attempt in the
// graph) and then *cluster.RemoteStageError (which peer) from the same
// chain. This is the attribution path serve's error mapper relies on.
func TestRemoteStageErrorThroughGraph(t *testing.T) {
	srv := stagePeer(t, nil)
	defer srv.Close()
	c := testCluster(t, srv.URL)
	c.selfInflight.Add(1)
	defer c.selfInflight.Add(-1)

	g := parallel.NewGraph()
	g.Add("trace-1999", func() error {
		_, err := c.TraceStage(context.Background(), tinyCfg(), 1999, 0, localOf(tinyCfg(), 1999, 0))
		return err
	})
	err := g.Run(2)
	if err == nil {
		t.Fatal("graph run with a doomed stage succeeded")
	}
	var se *parallel.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a *parallel.StageError in the chain", err)
	}
	if se.Stage != "trace-1999" || se.Panicked {
		t.Fatalf("graph attribution = %+v", se)
	}
	var rse *RemoteStageError
	if !errors.As(err, &rse) {
		t.Fatalf("err = %v, want a *RemoteStageError through the StageError", err)
	}
	if rse.Peer != normalizePeer(srv.URL) {
		t.Fatalf("peer attribution lost through the graph frame: %+v", rse)
	}
}

// TestClusterRunEquivalence is the end-to-end distribution guarantee:
// a full pipeline run whose trace stages are dispatched through the
// cluster (stealing to a live peer under real stage concurrency)
// serializes byte-identically to a plain in-process run.
func TestClusterRunEquivalence(t *testing.T) {
	var calls atomic.Int64
	srv := stagePeer(t, &calls)
	defer srv.Close()
	c := testCluster(t, srv.URL)

	cfg := tinyCfg()
	plain, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	distributed, err := core.RunWithOptions(context.Background(), cfg, core.RunOptions{TraceStage: c.TraceStage})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := trace.WriteAccountingTable(&a, plain.Jobs); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteAccountingTable(&b, distributed.Jobs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("distributed run serialized different accounting bytes than the plain run")
	}
	if plain.Sim.Metrics != distributed.Sim.Metrics {
		t.Fatal("distributed run changed simulation metrics")
	}
	total := c.steals.With("local").Value() + c.steals.With("remote").Value() + c.steals.With("fallback").Value()
	if want := uint64(len(cfg.TraceYears) * cfg.TraceScale); total != want {
		t.Fatalf("dispatch decisions = %d, want %d", total, want)
	}
}

// TestClusterRunEquivalenceUnderPeerDeath: same guarantee with the
// peer SIGKILLed (server closed) before the run — every steal fails
// over to local compute and the bytes still match.
func TestClusterRunEquivalenceUnderPeerDeath(t *testing.T) {
	srv := stagePeer(t, nil)
	url := srv.URL
	srv.Close()
	c := testCluster(t, url)

	cfg := tinyCfg()
	plain, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	distributed, err := core.RunWithOptions(context.Background(), cfg, core.RunOptions{TraceStage: c.TraceStage})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := trace.WriteAccountingTable(&a, plain.Jobs); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteAccountingTable(&b, distributed.Jobs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("peer death changed artifact bytes (it may only cost latency)")
	}
}
