package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/parallel"
)

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunWithOptions(ctx, equivConfig(), RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := RunWithOptions(ctx, equivConfig(), RunOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want context.DeadlineExceeded", err)
	}
}

// TestRunWithRetryMatchesCleanRun is the retry half of the determinism
// contract: a run whose stages fail transiently and get retried must
// produce byte-identical artifacts to a clean run, because every stage
// re-derives its rng streams by name at the top of each attempt.
func TestRunWithRetryMatchesCleanRun(t *testing.T) {
	cfg := equivConfig()
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	failed := map[string]bool{}
	var retries []parallel.Event
	bumpy, err := RunWithOptions(context.Background(), cfg, RunOptions{
		Middleware: func(stage string, attempt int, run func() error) error {
			mu.Lock()
			first := !failed[stage]
			failed[stage] = true
			mu.Unlock()
			if first {
				return errors.New("transient fault")
			}
			return run()
		},
		Events: func(ev parallel.Event) {
			if ev.Kind == parallel.EventRetry {
				mu.Lock()
				retries = append(retries, ev)
				mu.Unlock()
			}
		},
		Retry: parallel.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(retries) == 0 {
		t.Fatal("no retries recorded; middleware did not fire")
	}
	assertArtifactsEqual(t, "clean", "retried", clean, bumpy)
}

// TestRunStageFailureIsTyped: a stage that keeps failing surfaces as a
// *parallel.StageError naming the stage, with the run failing cleanly.
func TestRunStageFailureIsTyped(t *testing.T) {
	cfg := equivConfig()
	boom := errors.New("persistent fault")
	_, err := RunWithOptions(context.Background(), cfg, RunOptions{
		Middleware: func(stage string, attempt int, run func() error) error {
			if stage == "rake-2024" {
				return boom
			}
			return run()
		},
	})
	var se *parallel.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err=%T %v, want *parallel.StageError", err, err)
	}
	if se.Stage != "rake-2024" || !errors.Is(err, boom) {
		t.Fatalf("StageError=%+v", se)
	}
}
