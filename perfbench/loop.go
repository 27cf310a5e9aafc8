package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"doppiodb/internal/telemetry"
)

// record is one issued statement.
type record struct {
	seq   int
	st    stmt
	start time.Time
	wall  time.Duration
	ans   *answer
	err   error
	// actualNS is the statement's change of the core.actual_ns counter:
	// the simulated time of its HUDF calls. Set on single-client runs only,
	// where no other statement runs concurrently.
	actualNS int64
}

// heapMark is the statement count after which a run measures its live
// heap. A fixed count, not the end of the run, keeps heap_live_mb
// independent of throughput: every offloaded statement leaves a result BAT
// live in the shared region, so an end-of-run reading would grow with
// speed.
const heapMark = 200

// phase is one closed-loop measurement window.
type phase struct {
	recs [][]record // per client, in issue order
	// active is the window's wall time minus the exclusive sections (heap
	// probe, traced replays) during which no statement ran.
	active   time.Duration
	heapLive uint64
	start    runtimeSample
	end      runtimeSample
	counters counterDelta
}

// gate lets a client run a section while no statement is in flight, and
// accounts that section's time so it can be taken out of the window.
type gate struct {
	mu     sync.RWMutex
	paused atomic.Int64
}

func (g *gate) exclusive(f func()) {
	g.mu.Lock()
	t0 := time.Now()
	f()
	g.paused.Add(int64(time.Since(t0)))
	g.mu.Unlock()
}

// tracing is a traced run's per-client tracers and its replayer.
type tracing struct {
	tracers []*tracer
	rp      *replayer
}

// counterNames are the program's telemetry counters a run reads before
// and after its window.
var counterNames = []string{
	"core.actual_ns", "core.queries", "core.config_cache_hits",
	"core.advisor.decisions", "plan.cache_hits", "plan.cache_misses",
	"qpi.grants",
}

type counterDelta map[string]int64

func readCounters() counterDelta {
	tel := telemetry.Default()
	out := counterDelta{"shmem.live_bytes": tel.Gauge("shmem.live_bytes").Value()}
	for _, n := range counterNames {
		out[n] = tel.Counter(n).Value()
	}
	return out
}

func (a counterDelta) to(b counterDelta) counterDelta {
	out := counterDelta{}
	for k, v := range b {
		out[k] = v - a[k]
	}
	return out
}

// runPhase runs every client of st in a closed loop for dur: each client
// issues its next statement as soon as the previous one returned. With tc
// set, each statement is traced and then replayed in an exclusive section.
func runPhase(w *spec, st stack, seed int64, base int, dur time.Duration, tc *tracing) *phase {
	ph := &phase{recs: make([][]record, w.clients)}
	actual := telemetry.Default().Counter("core.actual_ns")
	var g gate
	var issued atomic.Int64
	heapDone := false
	probeHeap := func() {
		g.exclusive(func() {
			if !heapDone {
				heapDone = true
				ph.heapLive = liveHeap()
			}
		})
	}

	before := readCounters()
	ph.start = sampleRuntime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := w.stream(seed, c)
			cl := st.client(c)
			ctx := context.Background()
			var t *tracer
			if tc != nil {
				t = tc.tracers[c]
				ctx = context.WithValue(ctx, tracerKey{}, t)
			}
			inserted := 0
			for seq := 0; time.Since(t0) < dur; seq++ {
				r := record{seq: seq, st: next()}
				g.mu.RLock()
				if t != nil {
					t.startStmt()
				}
				a0 := actual.Value()
				r.start = time.Now()
				if r.st.kind == kindInsert {
					r.err = cl.insert(base+inserted, r.st.row)
				} else {
					r.ans, r.err = cl.query(ctx, r.st.sql)
				}
				r.wall = time.Since(r.start)
				if w.clients == 1 {
					r.actualNS = actual.Value() - a0
				}
				if t != nil {
					t.endStmt(&r)
				}
				g.mu.RUnlock()
				if r.st.kind == kindInsert && r.err == nil {
					inserted++
				}
				if t != nil {
					g.exclusive(func() { tc.rp.replay(t, &r) })
				}
				ph.recs[c] = append(ph.recs[c], r)
				if issued.Add(1) == heapMark {
					probeHeap()
				}
			}
		}(c)
	}
	wg.Wait()
	ph.active = time.Since(t0) - time.Duration(g.paused.Load())
	ph.end = sampleRuntime()
	ph.counters = before.to(readCounters())
	if !heapDone {
		probeHeap()
	}
	return ph
}
