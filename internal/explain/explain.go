// Package explain is the per-query decision record of the cost-based
// placement machinery (§9): the full story of why a predicate ran where it
// did. A Record captures every candidate plan — the software operator, the
// FPGA engines, and the hybrid split — with an itemized predicted cost
// breakdown (scan bytes, QPI transfer time, engine busy time, queue delay,
// fixed offload overheads), the chosen plan with its reason, and, after
// execution, the actual figures pulled from the device runtime's per-job
// Completion records, with per-term prediction error.
//
// Records are deliberately free of wall-clock state: every quantity is a
// deterministic simulated figure, so repeated single-client runs of the
// same query produce bit-identical records — the property the calibration
// auditor (calib.go) relies on to attribute drift to the model, not to the
// host.
//
// The package is a leaf: it depends only on sim, telemetry, flightrec and
// topdown, so core, sql, mdb, the monitoring endpoint and the CLIs can all
// share the Record type without import cycles.
package explain

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"doppiodb/internal/sim"
	"doppiodb/internal/topdown"
)

// Cost-term names. Every predicted and actual cost is itemized under these
// keys; the calibration auditor keeps rolling error statistics per term.
const (
	// TermScanBytes is the input volume crossing QPI (bytes, not time).
	TermScanBytes = "scan_bytes"
	// TermQPITransfer is the link service time of the query's grants.
	TermQPITransfer = "qpi_transfer"
	// TermEngineBusy is admission→completion on the slowest engine.
	TermEngineBusy = "engine_busy"
	// TermQueueDelay is the wait in the device runtime's backlog.
	TermQueueDelay = "queue_delay"
	// TermSoftware is CPU operator time (full software run or hybrid tail).
	TermSoftware = "software"
	// TermTotal is the end-to-end simulated response time.
	TermTotal = "total"
)

// Terms lists every cost term in canonical rendering order.
var Terms = []string{
	TermScanBytes, TermQPITransfer, TermEngineBusy,
	TermQueueDelay, TermSoftware, TermTotal,
}

// Cost is one itemized cost vector — a candidate's prediction or a finished
// query's measurement. Times are simulated nanoseconds, volume is bytes;
// integer fields keep records bit-identical across runs. A zero field means
// the term does not apply to this plan.
type Cost struct {
	ScanBytes     int64 `json:"scan_bytes,omitempty"`
	QPITransferNS int64 `json:"qpi_transfer_ns,omitempty"`
	EngineBusyNS  int64 `json:"engine_busy_ns,omitempty"`
	QueueDelayNS  int64 `json:"queue_delay_ns,omitempty"`
	SoftwareNS    int64 `json:"software_ns,omitempty"`
	// FixedNS bundles the per-query constants (database handoff, UDF
	// software part, config generation, HAL job creation).
	FixedNS int64 `json:"fixed_ns,omitempty"`
	TotalNS int64 `json:"total_ns"`
}

// Term returns the named term's value.
func (c Cost) Term(name string) int64 {
	switch name {
	case TermScanBytes:
		return c.ScanBytes
	case TermQPITransfer:
		return c.QPITransferNS
	case TermEngineBusy:
		return c.EngineBusyNS
	case TermQueueDelay:
		return c.QueueDelayNS
	case TermSoftware:
		return c.SoftwareNS
	case TermTotal:
		return c.TotalNS
	}
	return 0
}

// Candidate is one plan the optimizer considered.
type Candidate struct {
	// Placement is "fpga", "hybrid" or "software".
	Placement string `json:"placement"`
	// Feasible reports whether the plan can run at all; Reason explains an
	// infeasible plan or annotates a feasible one.
	Feasible bool   `json:"feasible"`
	Reason   string `json:"reason,omitempty"`
	// HWPart/SWPart are the hybrid split (feasible hybrid only).
	HWPart string `json:"hw_part,omitempty"`
	SWPart string `json:"sw_part,omitempty"`
	// Cost is the predicted breakdown (zero when infeasible).
	Cost Cost `json:"cost"`
}

// TermError is one term's predicted-vs-actual comparison. SignedErr is
// (predicted−actual)/actual (positive: the model over-predicted); RelErr is
// its magnitude. When the actual is zero the predicted value is the
// denominator instead, so a term the model invented still scores an error.
type TermError struct {
	Term      string  `json:"term"`
	Predicted int64   `json:"predicted"`
	Actual    int64   `json:"actual"`
	RelErr    float64 `json:"rel_err"`
	SignedErr float64 `json:"signed_err"`
}

// Record is the full placement story of one query.
type Record struct {
	// Pattern and the input statistics the estimate saw.
	Pattern     string `json:"pattern"`
	Rows        int    `json:"rows"`
	AvgLen      int    `json:"avg_len"`
	QueuedBytes int64  `json:"queued_bytes"`
	// States/Chars are the compiled expression's resource demand.
	States int `json:"states"`
	Chars  int `json:"chars"`
	// Candidates holds every plan considered, in fpga/hybrid/software order.
	Candidates []Candidate `json:"candidates"`
	// Chosen names the plan taken; Reason says why.
	Chosen string `json:"chosen"`
	Reason string `json:"reason"`
	// Executed is set once Finish recorded the actual figures.
	Executed bool `json:"executed"`
	// Degraded marks a query the fault layer pushed to the software
	// fallback — its actuals describe the fallback, not the chosen plan,
	// so the auditor skips it.
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedCause string `json:"degraded_cause,omitempty"`
	// Retries counts the query-level hardware re-attempts the robustness
	// layer took after transient faults; RetryBackoffNS is the simulated
	// backoff they accrued. Zero on clean runs.
	Retries        int   `json:"retries,omitempty"`
	RetryBackoffNS int64 `json:"retry_backoff_ns,omitempty"`
	// Actual is the measured cost vector (nil before execution).
	Actual *Cost `json:"actual,omitempty"`
	// Errors compares predicted vs actual per term (terms absent from both
	// sides are omitted).
	Errors []TermError `json:"errors,omitempty"`
	// PlanCacheHit marks a record cloned from the plan cache: the placement
	// decision was reused, not re-derived.
	PlanCacheHit bool `json:"plan_cache_hit,omitempty"`
	// ConfigCached marks a run that reused a compiled regex config vector,
	// skipping Glushkov construction and the 512-bit encode.
	ConfigCached bool `json:"config_cached,omitempty"`
	// SharedScan marks a follower query whose scan was coalesced into
	// another query's HAL job group — its actuals describe shared work, so
	// the calibration auditor skips it.
	SharedScan bool `json:"shared_scan,omitempty"`
	// Topdown is the bottleneck attribution: the executed query's phase
	// breakdown and engine-cycle buckets folded into a verdict. Nil before
	// execution.
	Topdown *topdown.Attribution `json:"topdown,omitempty"`
	// Session and Query identify the SQL statement that ran the record's
	// query, for the wide event of a predicate kept in software (its finish
	// step gets the record but no context). Not part of the rendered record.
	Session string `json:"-"`
	Query   string `json:"-"`

	auditor *Auditor
}

// Clone copies the planning-time half of a record for reuse from the plan
// cache: candidates, the chosen plan and its statistics survive; execution
// state (actuals, errors, degradation, retries) and the auditor hook are
// reset so the clone tells only its own query's story.
func (r *Record) Clone() *Record {
	if r == nil {
		return nil
	}
	c := &Record{
		Pattern:      r.Pattern,
		Rows:         r.Rows,
		AvgLen:       r.AvgLen,
		QueuedBytes:  r.QueuedBytes,
		States:       r.States,
		Chars:        r.Chars,
		Candidates:   append([]Candidate(nil), r.Candidates...),
		Chosen:       r.Chosen,
		Reason:       r.Reason,
		PlanCacheHit: true,
	}
	return c
}

// Candidate returns the candidate for a placement (nil when absent).
func (r *Record) Candidate(placement string) *Candidate {
	for i := range r.Candidates {
		if r.Candidates[i].Placement == placement {
			return &r.Candidates[i]
		}
	}
	return nil
}

// Predicted returns the chosen candidate's cost vector.
func (r *Record) Predicted() Cost {
	if c := r.Candidate(r.Chosen); c != nil {
		return c.Cost
	}
	return Cost{}
}

// Offloads reports whether the chosen plan uses the FPGA.
func (r *Record) Offloads() bool {
	return r.Chosen == "fpga" || r.Chosen == "hybrid"
}

// ForceHardware rewrites the decision to the best feasible hardware plan —
// the explicitly invoked operator (REGEXP_FPGA) bypasses the cost model, and
// the record must tell the truth about what runs.
func (r *Record) ForceHardware(reason string) {
	for _, p := range []string{"fpga", "hybrid"} {
		if c := r.Candidate(p); c != nil && c.Feasible {
			r.Chosen = p
			r.Reason = reason
			return
		}
	}
}

// SetAuditor routes this record to a calibration auditor on Finish.
func (r *Record) SetAuditor(a *Auditor) {
	if r == nil {
		return
	}
	r.auditor = a
}

// Finish records the measured cost vector, computes the per-term prediction
// errors against the chosen candidate, and hands the record to the attached
// calibration auditor. Calling Finish twice replaces the actuals.
func (r *Record) Finish(actual Cost) {
	if r == nil {
		return
	}
	a := actual
	r.Actual = &a
	r.Executed = true
	r.Errors = r.Errors[:0]
	pred := r.Predicted()
	for _, term := range Terms {
		p, act := pred.Term(term), a.Term(term)
		rel, signed, ok := relativeError(p, act)
		if !ok {
			continue
		}
		r.Errors = append(r.Errors, TermError{
			Term: term, Predicted: p, Actual: act,
			RelErr: rel, SignedErr: signed,
		})
	}
	r.auditor.Observe(r)
}

// relativeError compares a predicted and an actual term value. Terms absent
// from both sides carry no signal (ok=false); a term with a zero actual is
// scored against the prediction so invented terms still register.
func relativeError(pred, act int64) (rel, signed float64, ok bool) {
	if pred == 0 && act == 0 {
		return 0, 0, false
	}
	den := float64(act)
	if act == 0 {
		den = float64(pred)
	}
	if den < 0 {
		den = -den
	}
	signed = (float64(pred) - float64(act)) / den
	rel = signed
	if rel < 0 {
		rel = -rel
	}
	return rel, signed, true
}

// TermError returns the comparison for one term (zero, false when the term
// carried no signal).
func (r *Record) TermError(term string) (TermError, bool) {
	for _, e := range r.Errors {
		if e.Term == term {
			return e, true
		}
	}
	return TermError{}, false
}

// fmtNS renders simulated nanoseconds like the rest of the stack renders
// sim.Time.
func fmtNS(ns int64) string { return (sim.Time(ns) * sim.Nanosecond).String() }

// fmtPct renders a relative error as a signed percentage.
func fmtPct(signed float64) string { return fmt.Sprintf("%+.1f%%", signed*100) }

// costTerms renders the non-zero terms of a cost vector.
func costTerms(c Cost) string {
	var parts []string
	if c.ScanBytes != 0 {
		parts = append(parts, fmt.Sprintf("scan=%dB", c.ScanBytes))
	}
	if c.QPITransferNS != 0 {
		parts = append(parts, "qpi="+fmtNS(c.QPITransferNS))
	}
	if c.EngineBusyNS != 0 {
		parts = append(parts, "engine="+fmtNS(c.EngineBusyNS))
	}
	if c.QueueDelayNS != 0 {
		parts = append(parts, "queue="+fmtNS(c.QueueDelayNS))
	}
	if c.SoftwareNS != 0 {
		parts = append(parts, "sw="+fmtNS(c.SoftwareNS))
	}
	if c.FixedNS != 0 {
		parts = append(parts, "fixed="+fmtNS(c.FixedNS))
	}
	return strings.Join(parts, " ")
}

// Lines renders the EXPLAIN view: input statistics, every candidate with
// its predicted breakdown, and the decision. Deterministic for identical
// records.
func (r *Record) Lines() []string {
	if r == nil {
		return nil
	}
	out := []string{fmt.Sprintf(
		"pattern: '%s' (states=%d chars=%d) rows=%d avg_len=%d queued=%dB",
		r.Pattern, r.States, r.Chars, r.Rows, r.AvgLen, r.QueuedBytes)}
	for _, c := range r.Candidates {
		if !c.Feasible {
			out = append(out, fmt.Sprintf("candidate %-8s infeasible — %s", c.Placement, c.Reason))
			continue
		}
		line := fmt.Sprintf("candidate %-8s total=%s", c.Placement, fmtNS(c.Cost.TotalNS))
		if terms := costTerms(c.Cost); terms != "" {
			line += "  [" + terms + "]"
		}
		if c.HWPart != "" {
			line += fmt.Sprintf("  hw='%s' sw='%s'", c.HWPart, c.SWPart)
		}
		out = append(out, line)
	}
	out = append(out, fmt.Sprintf("chosen: %s — %s", r.Chosen, r.Reason))
	if r.PlanCacheHit {
		out = append(out, "plan cache: hit — placement reused without re-estimation")
	}
	if r.ConfigCached {
		out = append(out, "config cache: hit — compiled vector reused, config-gen skipped")
	}
	return out
}

// AnalyzeLines renders the EXPLAIN ANALYZE extension: predicted vs actual
// per cost term with per-term relative error. Empty before Finish.
func (r *Record) AnalyzeLines() []string {
	if r == nil || !r.Executed || r.Actual == nil {
		return nil
	}
	out := []string{fmt.Sprintf("%-13s %14s %14s %9s", "term", "predicted", "actual", "error")}
	pred := r.Predicted()
	for _, term := range Terms {
		p, a := pred.Term(term), r.Actual.Term(term)
		if p == 0 && a == 0 {
			continue
		}
		ps, as := fmtNS(p), fmtNS(a)
		if term == TermScanBytes {
			ps, as = fmt.Sprintf("%dB", p), fmt.Sprintf("%dB", a)
		}
		errs := "-"
		if e, ok := r.TermError(term); ok {
			errs = fmtPct(e.SignedErr)
		}
		out = append(out, fmt.Sprintf("%-13s %14s %14s %9s", term, ps, as, errs))
	}
	if r.Retries > 0 {
		out = append(out, fmt.Sprintf("retries: %d hardware re-attempt(s), %s backoff",
			r.Retries, fmtNS(r.RetryBackoffNS)))
	}
	if r.Degraded {
		out = append(out, "degraded: software fallback ("+r.DegradedCause+")")
	}
	if r.SharedScan {
		out = append(out, "shared scan: follower — results fanned out from a coalesced job group")
	}
	if r.Topdown != nil {
		out = append(out, r.Topdown.Line())
	}
	return out
}

// WriteText writes the record (and, once executed, the predicted-vs-actual
// table) as plain text.
func (r *Record) WriteText(w io.Writer) {
	if r == nil {
		return
	}
	for _, l := range r.Lines() {
		fmt.Fprintln(w, l)
	}
	for _, l := range r.AnalyzeLines() {
		fmt.Fprintln(w, l)
	}
}

// WriteJSON writes the record as indented JSON.
func (r *Record) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ctxKey carries a *Record through a context.
type ctxKey struct{}

// WithRecord attaches a pre-built decision record to ctx so the execution
// layers below (mdb.CallUDF → core.Exec) fill its actuals instead of
// building their own record.
func WithRecord(ctx context.Context, r *Record) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the record attached by WithRecord, or nil.
func FromContext(ctx context.Context) *Record {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxKey{}).(*Record)
	return r
}
