package sql

import (
	"context"

	"doppiodb/internal/explain"
	"doppiodb/internal/plan"
	"doppiodb/internal/telemetry"
)

// explainQuery serves EXPLAIN [ANALYZE] <select>: one "plan" output column,
// one row per line of the decision record. Plain EXPLAIN prices the
// candidates without executing; ANALYZE executes the inner statement and
// appends the predicted-vs-actual table with per-term relative error.
func (e *Engine) explainQuery(ctx context.Context, stmt *SelectStmt, root *telemetry.Span) (*Result, error) {
	e.Tel.Counter("sql.explain").Inc()
	inner := *stmt
	inner.Explain, inner.Analyze = false, false

	var rec *explain.Record
	res := &Result{Cols: []string{"plan"}, FastPath: "explain"}
	if stmt.Analyze {
		out, err := e.exec(ctx, &inner, root.StartChild("analyze-exec"))
		if err != nil {
			return nil, err
		}
		rec = out.Decision
		res.UDF = out.UDF
		res.Work = out.Work
		res.Plan = out.Plan
	} else {
		// Compile without executing: the operator tree plus the
		// plan-time placement decision. Statement shapes whose decision
		// only exists at run time (the forced REGEXP_FPGA operator) price
		// the predicate the planner bound.
		pl, err := e.plan(&inner, root)
		if err != nil {
			return nil, err
		}
		rec = pl.st.decision
		if rec == nil && pl.target != nil && e.Advisor != nil {
			if rec, err = pl.target.price(e.Advisor); err != nil {
				return nil, err
			}
		}
		res.Plan = plan.Snapshot(pl.root)
	}
	res.Decision = rec

	recLines := rec.Lines()
	if len(recLines) == 0 {
		recLines = []string{"no decision record: the predicate is not hardware-eligible, or no cost-model advisor is attached"}
	}
	if stmt.Analyze {
		recLines = append(recLines, rec.AnalyzeLines()...)
	}
	var lines []string
	if res.Plan != nil {
		lines = append(lines, res.Plan.Lines(stmt.Analyze)...)
		lines = append(lines, "")
	}
	lines = append(lines, recLines...)
	for _, l := range lines {
		res.Rows = append(res.Rows, []any{l})
	}
	return e.finish(res, root), nil
}
