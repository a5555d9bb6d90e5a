package engine

import (
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
