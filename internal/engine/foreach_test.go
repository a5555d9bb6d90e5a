package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestForEachCancellation checks that after a failure the pool stops
// picking up new jobs: every pending job waits for the failure before
// returning, so only the in-flight window executes.
func TestForEachCancellation(t *testing.T) {
	t.Parallel()
	const n = 100
	failed := make(chan struct{})
	var executed atomic.Int64
	err := ForEach(8, n, func(i int) error {
		executed.Add(1)
		if i == 0 {
			close(failed)
			return fmt.Errorf("job 0 failed")
		}
		<-failed
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "job 0 failed") {
		t.Fatalf("err = %v, want job 0 failure", err)
	}
	if got := executed.Load(); got >= n/2 {
		t.Fatalf("pool executed %d of %d jobs after a failure", got, n)
	}
}

// TestForEachLowestErrorWins: when several jobs fail, the reported error
// is the one with the lowest job index among those observed.
func TestForEachLowestErrorWins(t *testing.T) {
	t.Parallel()
	err := ForEach(1, 10, func(i int) error {
		if i >= 3 {
			return fmt.Errorf("err-%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "err-3" {
		t.Fatalf("err = %v, want err-3", err)
	}
}

// TestForEachWorkerCancel: once ctx is canceled no worker claims
// another job and the jobs in flight run to completion. The pool
// reports ctx.Err() when jobs were left unclaimed, and nil when the
// cancel landed after the last claim (the work is whole).
func TestForEachWorkerCancel(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		workers, n int
		wantErr    error
	}{
		{1, 100, context.Canceled},
		{4, 100, context.Canceled},
		{4, 4, nil},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		var started, finished atomic.Int64
		inFlight := make(chan struct{}, tc.workers)
		release := make(chan struct{})
		errc := make(chan error, 1)
		go func() {
			errc <- ForEachWorker(ctx, tc.workers, tc.n, func(_ *WorkerCtx, i int) error {
				started.Add(1)
				select {
				case inFlight <- struct{}{}:
				default: // a claim after the cancel: counted, must not block
				}
				<-release
				finished.Add(1)
				return nil
			})
		}()
		// Every worker holds a job when the cancel lands.
		for k := 0; k < tc.workers; k++ {
			<-inFlight
		}
		cancel()
		close(release)
		if err := <-errc; !errors.Is(err, tc.wantErr) {
			t.Fatalf("workers=%d n=%d: err = %v, want %v", tc.workers, tc.n, err, tc.wantErr)
		}
		if s, f := started.Load(), finished.Load(); s != int64(tc.workers) || f != s {
			t.Fatalf("workers=%d n=%d: %d jobs started, %d finished, want %d of each",
				tc.workers, tc.n, s, f, tc.workers)
		}
	}
}
