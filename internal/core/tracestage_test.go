package core

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
	"repro/internal/table"
	"repro/internal/trace"
)

// TestTraceStageHookEquivalence pins the distribution seam's contract:
// a run whose trace stages are computed through the TraceStage hook —
// here standalone TraceReplicaTable plus a round trip through the
// checksummed stream envelope, i.e. exactly what a remote steal does —
// produces artifacts deeply equal and byte-identical to a plain run.
func TestTraceStageHookEquivalence(t *testing.T) {
	cfg := equivConfig()
	cfg.TraceScale = 2 // cover rep>0 stage names through the hook
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	hooked, err := RunWithOptions(context.Background(), cfg, RunOptions{
		TraceStage: func(_ context.Context, cfg Config, year, rep int, _ func() (trace.JobTable, error)) (trace.JobTable, error) {
			calls.Add(1)
			tab, err := TraceReplicaTable(cfg, year, rep)
			if err != nil {
				return nil, err
			}
			var wire bytes.Buffer
			if err := table.EncodeStream[trace.Job](&wire, trace.JobCodec{}, tab); err != nil {
				return nil, err
			}
			return table.DecodeStream[trace.Job](&wire, trace.JobCodec{})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(cfg.TraceYears) * cfg.TraceScale); calls.Load() != want {
		t.Fatalf("hook called %d times, want %d", calls.Load(), want)
	}
	assertArtifactsEqual(t, "in-process", "via hook+stream", base, hooked)
}

// TestTraceStageHookError: a hook failure is a stage failure — it
// surfaces as a *parallel.StageError naming the trace stage, the same
// typed path every local stage error takes.
func TestTraceStageHookError(t *testing.T) {
	cfg := equivConfig()
	boom := errors.New("peer melted")
	_, err := RunWithOptions(context.Background(), cfg, RunOptions{
		TraceStage: func(_ context.Context, cfg Config, year, rep int, _ func() (trace.JobTable, error)) (trace.JobTable, error) {
			if year == cfg.TraceYears[len(cfg.TraceYears)-1] {
				return nil, boom
			}
			return TraceReplicaTable(cfg, year, rep)
		},
	})
	var se *parallel.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *parallel.StageError", err)
	}
	if se.Stage != "trace-2013" {
		t.Fatalf("stage = %q, want trace-2013", se.Stage)
	}
	if !errors.Is(err, boom) {
		t.Fatal("hook error not preserved in the chain")
	}
}

// TestTraceReplicaTableValidation: the standalone stage entry point is
// the surface a peer endpoint exposes, so it must reject out-of-graph
// (year, rep) coordinates instead of fabricating streams for them.
func TestTraceReplicaTableValidation(t *testing.T) {
	cfg := equivConfig()
	if _, err := TraceReplicaTable(cfg, 1999, 0); err == nil {
		t.Fatal("accepted a year outside TraceYears")
	}
	if _, err := TraceReplicaTable(cfg, cfg.TraceYears[0], 1); err == nil {
		t.Fatal("accepted a replica beyond the trace scale")
	}
	if _, err := TraceReplicaTable(cfg, cfg.TraceYears[0], -1); err == nil {
		t.Fatal("accepted a negative replica")
	}
}
