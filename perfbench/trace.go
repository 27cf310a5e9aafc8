package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"doppiodb/internal/bat"
	"doppiodb/internal/core"
	"doppiodb/internal/explain"
	"doppiodb/internal/mdb"
	"doppiodb/internal/perf"
)

// The traced run breaks each statement's wall time into the program's
// layers from outside the program, three ways:
//   - timing taps on the seams the program exposes: the SQL engine's
//     placement advisor (core.estimate, plus FinishSoftware as sinks) and
//     the REGEXP_FPGA UDF registration (core.hudf);
//   - replays, after the statement, of each layer call it made on the
//     same inputs (replay.go);
//   - the program's telemetry counters, read around the window.
//
// Replayed spans are nested under the measured span whose work they
// repeat. Self times are assigned top-down: a child gets its duration,
// capped by what its parent has left, and a span's self time is what its
// children leave of it. The root's self time is the unattributed
// remainder, so a statement's self times sum to its wall time exactly.

// Layers of the breakdown, in report order. A span is named after its
// layer; "stmt" is the root.
var layers = []string{
	"unattributed", "sql", "core.estimate", "core.hudf", "compile", "hal",
	"engine", "memmodel", "core.hybrid_post", "softregex", "strmatch",
	"invindex", "mdb", "sinks",
}

const rootSpan = "stmt"

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Stmt   int64  `json:"stmt"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// estimateCall is one measured advisor estimate of the current statement.
type estimateCall struct {
	span         int64
	pattern      string
	rows, avgLen int
}

// udfCall is one REGEXP_FPGA call of the current statement.
type udfCall struct {
	span    int64
	col     *bat.Strings
	pattern string
	out     *mdb.UDFResult
}

// tracer collects one client's spans. Taps append to it from inside the
// statement, so its fields are guarded by mu.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	ids   *atomic.Int64
	spans []span
	stmt  int64
	root  int64
	// first indexes the current statement's first span.
	first int
	ests  []estimateCall
	udfs  []udfCall
}

type tracerKey struct{}

func tracerFrom(ctx context.Context) *tracer {
	t, _ := ctx.Value(tracerKey{}).(*tracer)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a measured span under the statement's root.
func (t *tracer) begin(name string) int64 {
	id := t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: t.root, Stmt: t.stmt, Name: name, Start: t.now()})
	t.mu.Unlock()
	return id
}

func (t *tracer) finish(id int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.find(id); s != nil {
		s.End = end
	}
}

// find returns the span with the given id; the caller holds mu.
func (t *tracer) find(id int64) *span {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			return &t.spans[i]
		}
	}
	return nil
}

// replayed records a replay span of the given duration under parent.
func (t *tracer) replayed(parent int64, name string, start time.Time, d time.Duration) int64 {
	id := t.ids.Add(1)
	s := int64(start.Sub(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Stmt: t.stmt, Name: name,
		Start: s, End: s + int64(d), Replay: true})
	t.mu.Unlock()
	return id
}

// advisorTap times the cost model at the SQL engine's advisor seam.
type advisorTap struct {
	sys *core.System
	tr  *tracer
}

func (a *advisorTap) AdviseOffload(pattern string, rows, avgLen int) bool {
	rec, err := a.ExplainCost(pattern, rows, avgLen)
	return err == nil && rec.Offloads()
}

func (a *advisorTap) ExplainCost(pattern string, rows, avgLen int) (*explain.Record, error) {
	id := a.tr.begin("core.estimate")
	rec, err := a.sys.ExplainCost(pattern, rows, avgLen)
	a.tr.finish(id)
	a.tr.mu.Lock()
	a.tr.ests = append(a.tr.ests, estimateCall{span: id, pattern: pattern, rows: rows, avgLen: avgLen})
	a.tr.mu.Unlock()
	return rec, err
}

func (a *advisorTap) FinishSoftware(rec *explain.Record, w perf.Work) {
	id := a.tr.begin("sinks")
	a.sys.FinishSoftware(rec, w)
	a.tr.finish(id)
}

// registerUDFTap replaces the REGEXP_FPGA registration with a timed
// wrapper around the same HUDF.
func registerUDFTap(sys *core.System) {
	sys.DB.RegisterUDF(core.UDFName, func(ctx context.Context, col *bat.Strings, pattern string) (*mdb.UDFResult, error) {
		t := tracerFrom(ctx)
		if t == nil {
			return sys.RegexpFPGA(ctx, col, pattern)
		}
		id := t.begin("core.hudf")
		out, err := sys.RegexpFPGA(ctx, col, pattern)
		t.finish(id)
		if err == nil {
			t.mu.Lock()
			t.udfs = append(t.udfs, udfCall{span: id, col: col, pattern: pattern, out: out})
			t.mu.Unlock()
		}
		return out, err
	})
}

// startStmt opens a statement; endStmt records its root span with the
// loop's own timing of the call.
func (t *tracer) startStmt() {
	t.mu.Lock()
	t.first = len(t.spans)
	t.stmt = t.ids.Add(1)
	t.root = t.ids.Add(1)
	t.ests, t.udfs = t.ests[:0], t.udfs[:0]
	t.mu.Unlock()
}

func (t *tracer) endStmt(r *record) {
	s := int64(r.start.Sub(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: t.root, Stmt: t.stmt, Name: rootSpan, Start: s, End: s + int64(r.wall)})
	if r.st.kind == kindInsert {
		// The insert is the whole statement; the mdb span is the call
		// itself.
		t.spans = append(t.spans, span{ID: t.ids.Add(1), Parent: t.root, Stmt: t.stmt, Name: "mdb",
			Start: s, End: s + int64(r.wall)})
	}
}

// selfTimes assigns the statement's wall time to layers.
func selfTimes(spans []span, root int64) map[string]int64 {
	kids := make(map[int64][]*span)
	var rs *span
	for i := range spans {
		s := &spans[i]
		if s.ID == root {
			rs = s
			continue
		}
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[string]int64)
	if rs == nil {
		return out
	}
	var assign func(s *span, budget int64)
	assign = func(s *span, budget int64) {
		cs := kids[s.ID]
		// Measured children first (they happened inside s), then
		// replays, each in start order.
		sort.SliceStable(cs, func(i, j int) bool {
			if cs[i].Replay != cs[j].Replay {
				return !cs[i].Replay
			}
			return cs[i].Start < cs[j].Start
		})
		left := budget
		for _, c := range cs {
			b := min(max(c.dur(), 0), left)
			left -= b
			assign(c, b)
		}
		name := s.Name
		if name == rootSpan {
			name = "unattributed"
		}
		out[name] += left
	}
	assign(rs, rs.dur())
	return out
}

// saveSpans writes every span to path, one JSON object a line.
func saveSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for c, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				Client int `json:"client"`
				span
			}{c, s}); err != nil {
				f.Close()
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// spanDur is the duration of one of the current statement's spans.
func (t *tracer) spanDur(id int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.find(id); s != nil {
		return s.dur()
	}
	return 0
}
