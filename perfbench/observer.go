package main

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// timingObserver is the benchmark's obs.Observer: it counts engine
// cells and trials, sums the simulator's steps and rounds over finished
// trials, counts trials that end silent but not legitimate, and times
// each cell from its cell-start to its cell-finish event.
type timingObserver struct {
	mu       sync.Mutex
	open     map[cellID]time.Time
	cells    int
	trials   int
	steps    int64
	rounds   int64
	illegit  int
	busy     time.Duration // Σ cell spans
	cellMax  time.Duration
	unpaired int // cell-finish events without a matching start
}

type cellID struct {
	cell int
	key  string
}

func newTimingObserver() *timingObserver {
	return &timingObserver{open: map[cellID]time.Time{}}
}

// Observe implements obs.Observer; it is safe for concurrent use.
func (t *timingObserver) Observe(e obs.Event) {
	switch e.Kind {
	case obs.KindCellStart, obs.KindCellFinish, obs.KindTrialFinish:
	default:
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := cellID{e.Cell, e.Key}
	switch e.Kind {
	case obs.KindCellStart:
		t.open[id] = now
	case obs.KindCellFinish:
		start, ok := t.open[id]
		if !ok {
			t.unpaired++
			return
		}
		delete(t.open, id)
		d := now.Sub(start)
		t.cells++
		t.busy += d
		if d > t.cellMax {
			t.cellMax = d
		}
	case obs.KindTrialFinish:
		t.trials++
		t.steps += int64(e.Step)
		t.rounds += int64(e.Round)
		if e.Silent && !e.Legit {
			t.illegit++
		}
	}
}
