package engine

import (
	"repro/internal/request"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// prime validates the workload and schedules every arrival on the engine's
// clock, injecting a fresh request at its arrival instant — what a
// one-replica cluster does, minus routing.
func prime(e *Engine, w trace.Workload) error {
	if err := e.ValidateWorkload(w); err != nil {
		return err
	}
	for i, it := range w.Items {
		id, it := i, it
		e.clock.At(it.Arrival, func(now simclock.Time) {
			r := request.New(id, now, it.PromptLen, it.OutputLen, it.Rate)
			r.Session, r.Turn = it.Session, it.Turn
			e.Inject(r, now)
		})
	}
	return nil
}

// drive runs a workload on one engine for the package's tests: prime the
// workload, step the engine's clock until it runs dry, and collect.
func drive(e *Engine, w trace.Workload) (*Result, error) {
	if err := prime(e, w); err != nil {
		return nil, err
	}
	for e.clock.Step() {
	}
	return e.Collect(), nil
}
