// Package pipeline is the instrumentation of an analysis run: a wall clock
// that freezes when the run's goroutines have finished, named stage
// counters (items processed, busy time) and the run-wide Stats, frozen
// together into a serializable Snapshot so a run can report where the
// wall-clock went. It is domain-free and schedules nothing: the proxion
// package runs each contract through its analysis steps on one worker
// goroutine and accounts each step to a Stage here.
package pipeline

import (
	"sync"
	"time"
)

// Stage is the instrumentation of one named step of a run. Create stages
// through Engine.NewStage so they appear in the engine's snapshot.
type Stage struct {
	name    string
	workers int

	processed Counter
	busy      Counter // nanoseconds spent inside the step
}

// Add accounts items completed and the time they took to the stage. Safe
// from any goroutine; a worker that accumulates locally and calls it once
// when it exits keeps the per-item path free of shared writes.
func (s *Stage) Add(items int64, busy time.Duration) {
	s.processed.Add(items)
	s.busy.Add(int64(busy))
}

// Engine tracks the goroutines of one run and its wall clock. Wait blocks
// until every goroutine started with Go has returned.
type Engine struct {
	wg     sync.WaitGroup
	stages []*Stage
	start  time.Time
	// wall is the frozen run duration (0 while running). Wait writes it
	// while concurrent observers (live progress reporting, soak samplers)
	// read the clock through Wall; wallMu also covers their reading of the
	// live clock, so a live value is never later than the frozen one.
	wallMu sync.Mutex
	wall   time.Duration
}

// New creates an empty engine and starts its wall clock.
func New() *Engine {
	return &Engine{start: time.Now()}
}

// NewStage registers a named stage executed by the given number of
// goroutines. Workers below 1 are clamped to 1.
func (e *Engine) NewStage(name string, workers int) *Stage {
	if workers < 1 {
		workers = 1
	}
	s := &Stage{name: name, workers: workers}
	e.stages = append(e.stages, s)
	return s
}

// Go runs f on a goroutine tracked by Wait.
func (e *Engine) Go(f func()) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		f()
	}()
}

// Wait blocks until every goroutine started with Go has finished, then
// freezes the engine's wall clock.
func (e *Engine) Wait() {
	e.wg.Wait()
	e.wallMu.Lock()
	e.wall = time.Since(e.start)
	e.wallMu.Unlock()
}

// Wall returns the run's duration: live while running, frozen after Wait.
// Safe to call from any goroutine while the run is in flight.
func (e *Engine) Wall() time.Duration {
	e.wallMu.Lock()
	defer e.wallMu.Unlock()
	if e.wall > 0 {
		return e.wall
	}
	return time.Since(e.start)
}
