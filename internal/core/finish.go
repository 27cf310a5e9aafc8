// The finish step: every query — direct library calls, the SQL layer, the
// HUDF, and predicates the cost model kept in software — ends exactly once
// in finishQuery. From one set of per-query facts it derives every
// per-query sink: the decision record's actuals, the topdown bottleneck
// attribution, the verdict counter, and the canonical wide event (who
// asked, what the planner chose, how each simulated phase priced out, and
// how it ended under the overload taxonomy).
package core

import (
	"context"
	"errors"

	"doppiodb/internal/explain"
	"doppiodb/internal/hal"
	"doppiodb/internal/obs"
	"doppiodb/internal/sim"
	"doppiodb/internal/topdown"
)

// outcomeForError maps the overload/fault taxonomy (the HAL's sentinels) onto
// the query log's outcome classes.
func outcomeForError(err error) obs.Outcome {
	switch {
	case errors.Is(err, hal.ErrOverload):
		return obs.OutcomeShed
	// hal.ErrDeadlineExceeded matches context.DeadlineExceeded, so one
	// check covers both the simulated budget and a wall deadline.
	case errors.Is(err, context.DeadlineExceeded):
		return obs.OutcomeDeadline
	case errors.Is(err, context.Canceled):
		return obs.OutcomeCanceled
	default:
		return obs.OutcomeFailed
	}
}

// queryFacts is what one query contributes to its sinks. A failed query
// sets err and leaves the breakdown nil.
type queryFacts struct {
	// session and query identify the issuing SQL statement.
	session, query string
	pattern        string
	placement      string
	rows           int
	budget         sim.Time
	// bd is the Figure-10 phase breakdown.
	bd            *sim.Counter
	hw            HWStats
	matches       int
	hybrid        bool
	degraded      bool
	degradedCause string
	retries       int
	backoff       sim.Time
	configCached  bool
	shared        bool
	err           error
}

// finishQuery closes one query: it fills rec's actuals (rec may be nil),
// computes the topdown attribution and counts its verdict, and emits the
// wide event. It returns the attribution (nil for a failed query). All
// timestamps and durations are simulated, so identical runs finish
// identically.
func (s *System) finishQuery(rec *explain.Record, f queryFacts) *topdown.Attribution {
	ev := obs.Event{
		SimNS:     ns(s.HAL.SimEpoch()),
		Session:   f.session,
		Query:     f.query,
		Pattern:   f.pattern,
		Placement: f.placement,
		Rows:      f.rows,
		Retries:   f.retries,
		BackoffNS: ns(f.backoff),
		BudgetNS:  ns(f.budget),
	}
	if f.err != nil {
		ev.Outcome = outcomeForError(f.err)
		ev.Cause = f.err.Error()
		// A shed or refused query never ran; the only simulated time it
		// consumed is the retry backoff it may have accrued first.
		ev.TotalNS = ns(f.backoff)
		s.Obs.ObserveQuery(ev)
		return nil
	}

	// The phase → term mapping. Fixed costs are the per-query constants
	// the model prices up front. The topdown CPU term spans every software
	// phase: scan setup, the UDF's software half, HAL job creation, the
	// hybrid post-pass (or degraded fallback, or software scan) and retry
	// backoff. Config generation stays its own term — it is the component a
	// compiled-config cache hit removes.
	bd := f.bd
	total := bd.Total()
	fixed := bd.Get(PhaseDatabase) + bd.Get(PhaseUDF) +
		bd.Get(PhaseConfigGen) + bd.Get(PhaseHAL)
	cpu := bd.Get(PhaseDatabase) + bd.Get(PhaseUDF) + bd.Get(PhaseHAL) +
		bd.Get(PhaseSoftware) + bd.Get(PhaseRetry)

	if rec != nil {
		rec.Retries = f.retries
		rec.RetryBackoffNS = ns(f.backoff)
		rec.ConfigCached = f.configCached
		rec.SharedScan = f.shared
		rec.Degraded = f.degraded
		rec.DegradedCause = f.degradedCause
		rec.Finish(explain.Cost{
			ScanBytes:     f.hw.Bytes,
			QPITransferNS: ns(f.hw.LinkBusy),
			EngineBusyNS:  ns(f.hw.Time),
			QueueDelayNS:  ns(f.hw.QueueWait),
			SoftwareNS:    ns(bd.Get(PhaseSoftware)),
			FixedNS:       ns(fixed),
			TotalNS:       ns(total),
		})
	}
	a := topdown.Analyze(topdown.QueryCycles{
		Placement: f.placement,
		Degraded:  f.degraded,
		Software:  cpu,
		ConfigGen: bd.Get(PhaseConfigGen),
		Queue:     bd.Get(PhaseQueue),
		Hardware:  bd.Get(PhaseHardware),
		Total:     total,
		LinkBusy:  f.hw.LinkBusy,
		Buckets:   f.hw.Buckets,
	})
	s.Tel.Counter("topdown.verdict." + string(a.Verdict)).Inc()
	if rec != nil {
		rec.Topdown = a
	}

	ev.Outcome = obs.OutcomeCompleted
	if f.degraded {
		ev.Outcome = obs.OutcomeDegraded
		ev.Cause = f.degradedCause
	}
	ev.Matches = f.matches
	ev.Bytes = f.hw.Bytes
	ev.Jobs = f.hw.Jobs
	ev.Hybrid = f.hybrid
	ev.Shared = f.shared
	ev.PlanCached = f.configCached || (rec != nil && rec.PlanCacheHit)
	ev.QueueNS = ns(f.hw.QueueWait)
	ev.TotalNS = ns(total)
	phases := make(map[string]int64, 8)
	for _, ph := range bd.Phases() {
		phases[ph] = ns(bd.Get(ph))
	}
	ev.Phases = phases
	ev.Topdown = a
	s.Obs.ObserveQuery(ev)
	return a
}
