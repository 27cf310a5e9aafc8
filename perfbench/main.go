// Command perfbench is the wall-clock benchmark of doppiodb: it runs one
// workload against the engine in a closed loop, checks every statement
// against an oracle, and prints the end-to-end metrics (--trace 0) or the
// per-layer breakdown of a traced run (--trace 1). The last line of
// standard output is the result:
//
//	{"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}
//
// Run it from the repository root with run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload offload-scan --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// heldOutSeed is never used while developing a change; a claimed gain is
// confirmed on it.
const heldOutSeed = 1017

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	commit   string
}

func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: offload-scan, plan-churn, software-scan or two-sessions")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	traceN := fs.Int("trace", 0, "1 runs the traced per-layer breakdown")
	fs.StringVar(&o.traceOut, "trace-out", ".", "directory the traced run writes its spans to")
	fs.StringVar(&o.commit, "commit", "unknown", "commit under test, for the run context")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if specs[o.workload] == nil {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	o.trace = *traceN == 1
	return o, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"context": ctx}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its context and result; a
// readable summary goes to log.
func run(o options, log io.Writer) (map[string]any, *result, error) {
	w := specs[o.workload]
	d := w.data(o.seed)
	dur := time.Duration(o.seconds * float64(time.Second))
	rc := map[string]any{
		"workload": w.name, "seed": o.seed, "held_out_seed": heldOutSeed,
		"held_out": o.seed == heldOutSeed, "seconds": o.seconds, "trace": o.trace,
		"clients": w.clients, "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "go": runtime.Version(), "commit": o.commit,
	}
	var res *result
	var err error
	if o.trace {
		res, err = runTraced(w, d, o, dur, rc)
	} else {
		res, err = runUntraced(w, d, o, dur, rc)
	}
	if err != nil {
		return nil, nil, err
	}
	report(log, rc, res.Metrics)
	return rc, res, nil
}

// runUntraced measures the end-to-end metrics through the public API.
func runUntraced(w *spec, d *dataset, o options, dur time.Duration, rc map[string]any) (*result, error) {
	st, setupS, err := setUp(func() (stack, error) { return newPublicStack(w, d) })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ph := runPhase(w, st, o.seed, len(d.addr), dur, nil)
	st.close()
	sum, err := summarize(d, ph)
	if err != nil {
		return nil, err
	}
	m := metricSet{}
	m.put("stmt_per_s", "stmt/s", float64(sum.completed)/ph.active.Seconds())
	m.put("latency_p50_ms", "ms", quantile(sum.lat, 0.5))
	m.put("latency_p95_ms", "ms", quantile(sum.lat, 0.95))
	m.put("alloc_mb_per_stmt", "MB", ratio(float64(ph.end.allocBytes-ph.start.allocBytes)/1e6, float64(sum.attempted)))
	m.put("heap_live_mb", "MB", float64(ph.heapLive)/1e6)
	m.put("sim_ms_per_stmt", "ms", sum.simMSPerStmt())
	m.put("setup_s", "s", setupS)
	for k, v := range sum.context(ph) {
		rc[k] = v
	}
	return &result{Correct: sum.failed == 0, Attempted: sum.attempted, Failed: sum.failed, Metrics: m}, nil
}

// runTraced spends the first third of the run untraced through the public
// API, for the overhead comparison, and the rest traced on the internal
// stack; it returns the per-layer metrics.
func runTraced(w *spec, d *dataset, o options, dur time.Duration, rc map[string]any) (*result, error) {
	st, err := newPublicStack(w, d)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	phA := runPhase(w, st, o.seed, len(d.addr), dur/3, nil)
	st.close()
	sumA, err := summarize(d, phA)
	if err != nil {
		return nil, err
	}

	var ids atomic.Int64
	epoch := time.Now()
	tracers := make([]*tracer, w.clients)
	for i := range tracers {
		tracers[i] = &tracer{epoch: epoch, ids: &ids}
	}
	ts, err := newTracedStack(w, d, tracers)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	rp, err := newReplayer(ts.sys, d)
	if err != nil {
		ts.close()
		return nil, fmt.Errorf("replayer: %w", err)
	}
	phB := runPhase(w, ts, o.seed, len(d.addr), dur-dur/3, &tracing{tracers: tracers, rp: rp})
	ts.close()
	rp.close()
	sumB, err := summarize(d, phB)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.traceOut, fmt.Sprintf("trace-%s-%d.jsonl", w.name, o.seed))
	if err := saveSpans(path, tracers); err != nil {
		return nil, err
	}

	rc["spans"] = path
	rc["untraced"] = sumA.context(phA)
	rc["traced"] = sumB.context(phB)
	rc["attribution_errors"] = rp.ls.attributionErrors
	failed := sumA.failed + sumB.failed
	return &result{
		Correct:   failed == 0 && rp.ls.attributionErrors == 0,
		Attempted: sumA.attempted + sumB.attempted,
		Failed:    failed,
		Metrics:   layerMetrics(&rp.ls, phA, phB, sumA, sumB, rp),
	}, nil
}

// summary is the checked outcome of a phase.
type summary struct {
	attempted, completed, failed, queries, inserts int
	lat                                            []float64 // sorted ms of completed statements
	simNS                                          int64
	fpSimNS, fpMatches                             int64
	// prefixSimNS and prefixQueries cover each client's first simStmts
	// statements.
	prefixSimNS   int64
	prefixQueries int
	perClient     []int
	failures      []string
	// byKind holds each statement kind's completed wall times in ms.
	byKind map[string][]float64
}

// summarize checks every record of a phase against the oracles and prices
// it in simulated time.
func summarize(d *dataset, ph *phase) (*summary, error) {
	ck, err := newChecker(d)
	if err != nil {
		return nil, fmt.Errorf("oracle set-up: %w", err)
	}
	s := &summary{simNS: ph.counters["core.actual_ns"], byKind: make(map[string][]float64)}
	for _, recs := range ph.recs {
		s.perClient = append(s.perClient, len(recs))
		for i := range recs {
			r := &recs[i]
			s.attempted++
			if r.st.kind == kindInsert {
				s.inserts++
			} else {
				s.queries++
			}
			if r.err == nil {
				s.completed++
				s.lat = append(s.lat, ms(r.wall))
				s.byKind[r.st.kind] = append(s.byKind[r.st.kind], ms(r.wall))
			}
			v := ck.check(r)
			if !v.ok {
				s.failed++
				if len(s.failures) < 5 {
					s.failures = append(s.failures, fmt.Sprintf("%s: %s", r.st.sql, v.why))
				}
				continue
			}
			s.simNS += v.simNS
			if r.seq < fingerprintStmts {
				s.fpSimNS += v.simNS + r.actualNS
				s.fpMatches += v.matches
			}
			if r.seq < simStmts {
				s.prefixSimNS += v.simNS + r.actualNS
				if r.st.kind != kindInsert {
					s.prefixQueries++
				}
			}
		}
	}
	sort.Float64s(s.lat)
	return s, nil
}

// simStmts is how many statements of a single client sim_ms_per_stmt
// covers. A fixed count makes it an exact function of the seed: over the
// whole window it would depend on where in the statement cycle the window
// ended, and the hybrid statement of offload-scan costs thirty times the
// others. It is a multiple of the cycle lengths of offload-scan (4) and
// software-scan (9), and every workload completes it in a 30-second run.
const simStmts = 180

// simMSPerStmt is the mean simulated response time per query. Concurrent
// clients share queue waits, so theirs is the mean over the window.
func (s *summary) simMSPerStmt() float64 {
	if len(s.perClient) == 1 {
		return ratio(float64(s.prefixSimNS)/1e6, float64(s.prefixQueries))
	}
	return ratio(float64(s.simNS)/1e6, float64(s.queries))
}

func (s *summary) context(ph *phase) map[string]any {
	c := map[string]any{
		"attempted": s.attempted, "completed": s.completed, "failed": s.failed,
		"failed_frac": ratio(float64(s.failed), float64(s.attempted)),
		"queries":     s.queries, "inserts": s.inserts, "per_client": s.perClient,
		"active_s": ph.active.Seconds(), "latency_samples": len(s.lat),
		"samples_beyond_p95": beyond(len(s.lat), 0.95),
		"heap_probe_after":   heapMark,
	}
	kinds := make(map[string]any)
	for k, v := range s.byKind {
		kinds[k] = map[string]any{"n": len(v), "p50_ms": median(v)}
	}
	c["by_kind"] = kinds
	if len(s.perClient) == 1 {
		c["fingerprint"] = map[string]any{
			"stmts": fingerprintStmts, "sim_ns": s.fpSimNS, "matches": s.fpMatches,
		}
	}
	if len(s.failures) > 0 {
		c["failures"] = s.failures
	}
	return c
}

// report writes a readable summary.
func report(log io.Writer, rc map[string]any, m metricSet) {
	ctx, _ := json.Marshal(rc)
	fmt.Fprintf(log, "context %s\n", ctx)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "%-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// layerMetrics turns a traced run into the per-layer metrics.
func layerMetrics(ls *layerStats, phA, phB *phase, sumA, sumB *summary, rp *replayer) metricSet {
	m := metricSet{}
	per := func(v, n int64) float64 { return ratio(float64(v), float64(n)) }
	q := int64(ls.queries)
	cB := phB.counters
	m.put("sql.parse_us", "us", per(ls.parseNS, ls.parseN)/1e3)
	m.put("sql.self_ms", "ms", per(ls.sqlSelf, q)/1e6)
	m.put("plan.cache_hit_ratio", "ratio", per(cB["plan.cache_hits"], cB["plan.cache_hits"]+cB["plan.cache_misses"]))
	m.put("core.estimate_ms", "ms", per(ls.estNS, ls.estN)/1e6)
	m.put("core.estimate_calls_per_stmt", "count", per(cB["core.advisor.decisions"], q))
	m.put("core.udf_ms", "ms", per(ls.udfNS, ls.udfN)/1e6)
	m.put("core.config_cache_hit_ratio", "ratio", per(cB["core.config_cache_hits"], cB["core.queries"]))
	m.put("core.hybrid_post_ms", "ms", per(ls.postNS, ls.postN)/1e6)
	m.put("core.hybrid_yield", "ratio", per(ls.final, ls.preselected))
	m.put("compile.us", "us", per(ls.compileNS, ls.compileN)/1e3)
	m.put("hal.submit_ms", "ms", per(ls.submitNS, ls.halN)/1e6)
	m.put("hal.await_ms", "ms", per(ls.awaitNS, ls.halN)/1e6)
	m.put("hal.queue_wait_ms", "ms", per(ls.queueWaitNS, ls.udfN)/1e6)
	m.put("engine.execute_ms", "ms", per(ls.execNS, ls.halN)/1e6)
	m.put("pu.mb_per_s", "MB/s", per(ls.puBytes, ls.puNS)*1e3)
	m.put("pu.cycles_per_stmt", "count", per(ls.fpCycles, ls.fpStmts))
	m.put("memmodel.simulate_us", "us", per(ls.simulateNS, ls.halN)/1e3)
	m.put("memmodel.grants_per_stmt", "count", per(ls.fpGrants, ls.fpStmts))
	m.put("softregex.backtrack_mb_per_s", "MB/s", per(ls.btBytes, ls.btNS)*1e3)
	m.put("softregex.steps_per_row", "count", per(ls.fpSteps, ls.fpRows))
	m.put("strmatch.like_mb_per_s", "MB/s", per(ls.likeBytes, ls.likeNS)*1e3)
	m.put("invindex.lookup_us", "us", per(ls.lookupNS, ls.lookupN)/1e3)
	m.put("invindex.build_ms", "ms", median(rp.buildMS))
	m.put("mdb.insert_us", "us", per(ls.insertNS, ls.insertN)/1e3)
	m.put("shmem.live_bytes_per_stmt", "B", per(cB["shmem.live_bytes"], q))
	m.put("sinks.observe_us", "us", per(ls.observeNS, ls.observeN)/1e3)
	m.put("runtime.gc_cpu_frac", "ratio", ratio(phA.end.gcCPU-phA.start.gcCPU, phA.end.totalCPU-phA.start.totalCPU))
	for _, l := range layers {
		m.put("self."+l+"_ms", "ms", per(ls.self[l], int64(ls.stmts))/1e6)
	}
	traced := float64(sumB.completed) / phB.active.Seconds()
	untraced := float64(sumA.completed) / phA.active.Seconds()
	m.put("trace.stmt_per_s", "stmt/s", traced)
	m.put("trace.untraced_stmt_per_s", "stmt/s", untraced)
	m.put("trace.overhead_frac", "ratio", 1-ratio(traced, untraced))
	return m
}
