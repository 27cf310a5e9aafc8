package main

import (
	"context"
	"encoding/binary"
	"time"

	"doppiodb/internal/bat"
	"doppiodb/internal/config"
	"doppiodb/internal/core"
	"doppiodb/internal/engine"
	"doppiodb/internal/faults"
	"doppiodb/internal/flightrec"
	"doppiodb/internal/fpga"
	"doppiodb/internal/hal"
	"doppiodb/internal/invindex"
	"doppiodb/internal/memmodel"
	"doppiodb/internal/obs"
	"doppiodb/internal/pu"
	"doppiodb/internal/regex"
	"doppiodb/internal/shmem"
	"doppiodb/internal/softregex"
	"doppiodb/internal/sql"
	"doppiodb/internal/strmatch"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

// fingerprintStmts is how many statements per client the deterministic
// per-layer counts (PU cycles, QPI grants, backtracking steps) and the
// simulated-time fingerprint cover, so they are exact functions of the
// seed once a run completes that many, as a 30-second traced run does. It
// is a multiple of the cycle lengths of offload-scan (4) and software-scan
// (9).
const fingerprintStmts = 36

// layerStats accumulates a traced run's per-layer measurements. Durations
// are nanoseconds.
type layerStats struct {
	stmts, queries           int
	self                     map[string]int64
	sqlSelf                  int64
	parseNS, parseN          int64
	estNS, estN              int64
	udfNS, udfN              int64
	compileNS, compileN      int64
	submitNS, awaitNS, halN  int64
	queueWaitNS              int64
	execNS                   int64
	puNS, puBytes            int64
	simulateNS               int64
	postNS, postN            int64
	preselected, final       int64
	btNS, btBytes            int64
	likeNS, likeBytes        int64
	lookupNS, lookupN        int64
	insertNS, insertN        int64
	observeNS, observeN      int64
	fpCycles, fpGrants       int64
	fpSteps, fpRows, fpStmts int64
	attributionErrors        int
}

// replayer re-runs a statement's layer calls on the same inputs. The
// device side runs on a shadow HAL with its own device, region and
// telemetry, so replays leave the system under test untouched. Only one
// replay runs at a time (the loop runs them in exclusive sections).
type replayer struct {
	sys    *core.System
	lim    config.Limits
	hal    *hal.HAL
	eng    *engine.Engine
	params memmodel.Params
	obs    *obs.Observer
	probes map[int][][]byte
	index  *invindex.Index
	// buildMS are the CONTAINS index build times, one per build.
	buildMS []float64
	ls      layerStats
}

func newReplayer(sys *core.System, d *dataset) (*replayer, error) {
	dep := sys.Device.Deployment
	dev, err := fpga.NewDevice(dep)
	if err != nil {
		return nil, err
	}
	h, err := hal.New(shmem.NewRegion(64<<20), dev)
	if err != nil {
		return nil, err
	}
	tel := telemetry.NewRegistry()
	h.SetTelemetry(tel)
	h.SetInjector(faults.New(faults.Options{}))
	h.SetRecorder(flightrec.New(256))
	eng := engine.New(dev, 0)
	eng.SetTelemetry(tel)
	o := obs.New(obs.Options{})
	o.SetTelemetry(tel)
	rp := &replayer{
		sys: sys, lim: dep.Limits, hal: h, eng: eng, params: *h.Params(), obs: o,
		probes: make(map[int][][]byte),
		ls:     layerStats{self: make(map[string]int64)},
	}
	rp.params.Trace = nil
	if d.index {
		// The index build a set-up pays, timed three times on the
		// set-up's rows.
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			rp.index = invindex.Build(d.addr, true)
			rp.buildMS = append(rp.buildMS, ms(time.Since(t0)))
		}
	}
	return rp, nil
}

func (rp *replayer) close() { rp.hal.Close() }

// replay re-runs statement r's layer calls and assigns its wall time.
func (rp *replayer) replay(t *tracer, r *record) {
	ls := &rp.ls
	ls.stmts++
	fp := r.seq < fingerprintStmts
	if fp {
		ls.fpStmts++
	}
	if r.st.kind == kindInsert {
		ls.insertNS += int64(r.wall)
		ls.insertN++
	} else if r.err == nil {
		ls.queries++
		rp.replayQuery(t, r, fp)
	}
	self := selfTimes(t.spans[t.first:], t.root)
	var sum int64
	for k, v := range self {
		ls.self[k] += v
		sum += v
	}
	if sum != int64(r.wall) {
		ls.attributionErrors++
	}
}

func (rp *replayer) replayQuery(t *tracer, r *record, fp bool) {
	ls := &rp.ls
	t0 := time.Now()
	_, err := sql.Parse(r.st.sql)
	d := time.Since(t0)
	if err == nil {
		t.replayed(t.root, "sql", t0, d)
		ls.parseNS += int64(d)
		ls.parseN++
	}
	measured := int64(r.wall)
	for _, e := range t.ests {
		s := t.spanDur(e.span)
		measured -= s
		ls.estNS += s
		ls.estN++
		rp.probe(t, e.span, e.pattern, e.rows, e.avgLen, fp)
	}
	for _, u := range t.udfs {
		measured -= t.spanDur(u.span)
		rp.replayUDF(t, r, u, fp)
	}
	ls.sqlSelf += measured
	if r.ans.offloaded {
		return
	}
	rows := rp.column(addrTable, addrCol)
	switch r.st.kind {
	case kindRegexp:
		rp.backtrack(t, t.root, r.st.pattern, rows, fp)
	case kindLike, kindILike:
		rp.like(t, r.st.pattern, r.st.kind == kindILike, rows)
	case kindQ13:
		rp.like(t, q13Exclude, false, rp.column("orders", "o_comment"))
	case kindContains:
		if rp.index == nil {
			return
		}
		t0 := time.Now()
		_, _, err := rp.index.Search(r.st.pattern)
		d := time.Since(t0)
		if err == nil {
			t.replayed(t.root, "invindex", t0, d)
			ls.lookupNS += int64(d)
			ls.lookupN++
		}
	}
}

// column returns the current values of a string column of the system under
// test.
func (rp *replayer) column(table, col string) [][]byte {
	tbl, err := rp.sys.DB.Table(table)
	if err != nil {
		return nil
	}
	c, err := tbl.Column(col)
	if err != nil || c.Strs == nil {
		return nil
	}
	out := make([][]byte, c.Strs.Count())
	for i := range out {
		out[i] = c.Strs.Get(i)
	}
	return out
}

func (rp *replayer) like(t *tracer, pattern string, fold bool, rows [][]byte) {
	lp, err := strmatch.CompileLike(pattern, fold)
	if err != nil {
		return
	}
	t0 := time.Now()
	var bytes int64
	for _, s := range rows {
		lp.Match(s)
		bytes += int64(len(s))
	}
	d := time.Since(t0)
	t.replayed(t.root, "strmatch", t0, d)
	rp.ls.likeNS += int64(d)
	rp.ls.likeBytes += bytes
}

// probe replays the cost model's software probe: the backtracker over the
// synthesized rows EstimateCost generates for this row length.
func (rp *replayer) probe(t *tracer, parent int64, pattern string, n, avgLen int, fp bool) {
	rows, ok := rp.probes[avgLen]
	if !ok {
		g := workload.NewGenerator(1, avgLen)
		for i := 0; i < 512; i++ {
			rows = append(rows, []byte(g.Row(workload.HitNone)))
		}
		rp.probes[avgLen] = rows
	}
	rp.backtrack(t, parent, pattern, rows[:max(min(n, len(rows)), 1)], fp)
}

// backtrack replays the backtracker over rows as a softregex span under
// parent.
func (rp *replayer) backtrack(t *tracer, parent int64, pattern string, rows [][]byte, fp bool) {
	bt, err := softregex.NewBacktracker(pattern, false)
	if err != nil {
		return
	}
	t0 := time.Now()
	var steps, bytes int64
	for _, s := range rows {
		_, st := bt.Match(s)
		steps += int64(st)
		bytes += int64(len(s))
	}
	d := time.Since(t0)
	t.replayed(parent, "softregex", t0, d)
	rp.ls.btNS += int64(d)
	rp.ls.btBytes += bytes
	if fp {
		rp.ls.fpSteps += steps
		rp.ls.fpRows += int64(len(rows))
	}
}

// replayUDF replays one HUDF call: the cost estimate a direct REGEXP_FPGA
// call makes, the compile, the HAL round trip with the functional engines
// and the memory model, the hybrid post-processing and the query-log sink.
func (rp *replayer) replayUDF(t *tracer, r *record, u udfCall, fp bool) {
	ls := &rp.ls
	dur := t.spanDur(u.span)
	ls.udfNS += dur
	ls.udfN++
	if q, ok := u.out.Breakdown[core.PhaseQueue]; ok {
		ls.queueWaitNS += int64(q * 1e9)
	}
	n := u.col.Count()
	avgLen := 64
	if n > 0 && u.col.PayloadBytes() > 0 {
		avgLen = u.col.PayloadBytes() / n
	}
	if r.st.kind == kindFPGA {
		t0 := time.Now()
		_, err := rp.sys.EstimateCost(u.pattern, n, avgLen, 0)
		d := time.Since(t0)
		if err == nil {
			id := t.replayed(u.span, "core.estimate", t0, d)
			ls.estNS += int64(d)
			ls.estN++
			rp.probe(t, id, u.pattern, n, avgLen, fp)
		}
	}

	// Compile: the Glushkov program and config vector of the part that
	// runs on the device, and for a hybrid pattern the split. A config
	// cache hit skipped the compile, so its time is not replayed.
	cached := u.out.Decision != nil && u.out.Decision.ConfigCached
	t0 := time.Now()
	hwPat, swPat := u.pattern, ""
	var split time.Duration
	prog, err := token.CompilePattern(u.pattern, token.Options{})
	if err != nil {
		return
	}
	if config.Fits(prog, rp.lim) != nil {
		s0 := time.Now()
		if hwPat, swPat, err = core.SplitPattern(u.pattern, rp.lim, token.Options{}); err != nil {
			return
		}
		split = time.Since(s0)
		if prog, err = token.CompilePattern(hwPat, token.Options{}); err != nil {
			return
		}
	}
	vec, err := config.Encode(prog, rp.lim)
	if err != nil {
		return
	}
	if d := time.Since(t0); !cached || split > 0 {
		if cached {
			d = split
		}
		t.replayed(u.span, "compile", t0, d)
		ls.compileNS += int64(d)
		ls.compileN++
	}

	// HAL: submit one partition per engine (each submit executes the job
	// functionally), dispatch the group and await the round.
	parts := partition(u.col, vec, rp.hal.Engines())
	t0 = time.Now()
	var jobs []*hal.Job
	for e, p := range parts {
		j, err := rp.hal.SubmitTo(e, p)
		if err != nil {
			rp.hal.Discard(jobs...)
			return
		}
		jobs = append(jobs, j)
	}
	submit := time.Since(t0)
	t1 := time.Now()
	if err := rp.hal.Dispatch(jobs...); err != nil {
		rp.hal.Discard(jobs...)
		return
	}
	for _, j := range jobs {
		if _, err := j.Await(context.Background()); err != nil {
			return
		}
	}
	await := time.Since(t1)
	halID := t.replayed(u.span, "hal", t0, submit+await)
	ls.submitNS += int64(submit)
	ls.awaitNS += int64(await)
	ls.halN++

	// Engine: the functional simulation alone.
	t0 = time.Now()
	queues := make([][]memmodel.Job, len(parts))
	for e, p := range parts {
		st, err := rp.eng.Execute(p)
		if err != nil {
			return
		}
		queues[e] = []memmodel.Job{engine.TimingJob(p, st)}
		if fp {
			ls.fpCycles += int64(st.PUCycles)
		}
	}
	d := time.Since(t0)
	t.replayed(halID, "engine", t0, d)
	ls.execNS += int64(d)

	// Memory model: one arbitration round over the statement's jobs.
	t0 = time.Now()
	res := memmodel.Simulate(rp.params, queues)
	d = time.Since(t0)
	t.replayed(halID, "memmodel", t0, d)
	ls.simulateNS += int64(d)
	if fp {
		ls.fpGrants += res.Grants
	}

	// One PU over the first partition's rows, for the PU's own byte rate.
	if unit, err := pu.New(prog); err == nil && len(parts) > 0 {
		t0 = time.Now()
		for i := 0; i < parts[0].Count; i++ {
			unit.Match(u.col.Get(i))
		}
		ls.puNS += int64(time.Since(t0))
		for i := 0; i < parts[0].Count; i++ {
			ls.puBytes += int64(len(u.col.Get(i)))
		}
	}

	matches := 0
	if swPat != "" {
		matches = rp.hybridPost(t, u, parts, swPat)
	} else {
		for _, p := range parts {
			matches += countHits(p)
		}
	}

	// Sinks: the wide query event the HUDF emits at completion.
	ev := obs.Event{
		Pattern: u.pattern, Placement: "fpga", Outcome: obs.OutcomeCompleted,
		Rows: n, Matches: matches, Jobs: len(parts), Hybrid: swPat != "",
		Phases: make(map[string]int64, len(u.out.Breakdown)),
	}
	if swPat != "" {
		ev.Placement = "hybrid"
	}
	for ph, s := range u.out.Breakdown {
		ns := int64(s * 1e9)
		ev.Phases[ph] = ns
		ev.TotalNS += ns
	}
	t0 = time.Now()
	rp.obs.ObserveQuery(ev)
	d = time.Since(t0)
	t.replayed(u.span, "sinks", t0, d)
	ls.observeNS += int64(d)
	ls.observeN++
}

// hybridPost replays the software tail of a hybrid plan on the rows the
// device pre-selected, and returns the final match count.
func (rp *replayer) hybridPost(t *tracer, u udfCall, parts []engine.JobParams, swPat string) int {
	var matchTail func([]byte) bool
	if lit, ok := literal(swPat); ok {
		bm := strmatch.NewBoyerMoore([]byte(lit), false)
		matchTail = func(tail []byte) bool { return bm.Find(tail, 0) >= 0 }
	} else {
		bt, err := softregex.NewBacktracker(swPat, false)
		if err != nil {
			return 0
		}
		matchTail = func(tail []byte) bool { end, _ := bt.Match(tail); return end != 0 }
	}
	t0 := time.Now()
	pre, final := 0, 0
	row := 0
	for _, p := range parts {
		for i := 0; i < p.Count; i++ {
			pos := int(binary.LittleEndian.Uint16(p.Result[2*i:]))
			s := u.col.Get(row)
			row++
			if pos == 0 {
				continue
			}
			pre++
			if matchTail(s[min(pos, len(s)):]) {
				final++
			}
		}
	}
	d := time.Since(t0)
	t.replayed(u.span, "core.hybrid_post", t0, d)
	rp.ls.postNS += int64(d)
	rp.ls.postN++
	rp.ls.preselected += int64(pre)
	rp.ls.final += int64(final)
	return final
}

// partition splits the column across the engines the way the HUDF does,
// with private result buffers.
func partition(col *bat.Strings, vec []byte, engines int) []engine.JobParams {
	n := col.Count()
	if n < engines*64 {
		engines = 1
	}
	chunk := (n + engines - 1) / engines
	var out []engine.JobParams
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		out = append(out, engine.JobParams{
			Config:      vec,
			Offsets:     col.OffsetBytes()[lo*bat.OffsetWidth : hi*bat.OffsetWidth],
			OffsetWidth: bat.OffsetWidth,
			Heap:        col.HeapBytes(),
			Count:       hi - lo,
			Result:      make([]byte, 2*(hi-lo)),
		})
	}
	return out
}

func countHits(p engine.JobParams) int {
	n := 0
	for i := 0; i < p.Count; i++ {
		if p.Result[2*i] != 0 || p.Result[2*i+1] != 0 {
			n++
		}
	}
	return n
}

// literal reports whether a regex is a plain string, which the HUDF
// post-processes with Boyer-Moore instead of the backtracker.
func literal(pattern string) (string, bool) {
	ast, err := regex.Parse(pattern)
	if err != nil {
		return "", false
	}
	var out []byte
	nodes := []*regex.Node{ast}
	for len(nodes) > 0 {
		n := nodes[0]
		nodes = nodes[1:]
		switch n.Op {
		case regex.OpLit:
			out = append(out, n.Lit)
		case regex.OpConcat:
			nodes = append(append([]*regex.Node(nil), n.Subs...), nodes...)
		default:
			return "", false
		}
	}
	return string(out), len(out) > 0
}
