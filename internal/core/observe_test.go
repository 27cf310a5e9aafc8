package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"doppiodb/internal/bat"
	"doppiodb/internal/explain"
	"doppiodb/internal/faults"
	"doppiodb/internal/flightrec"
	"doppiodb/internal/fpga"
	"doppiodb/internal/hal"
	"doppiodb/internal/obs"
	"doppiodb/internal/perf"
	"doppiodb/internal/sim"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

// newObservedSystem boots a system with a private observer so the test
// reads its own wide events, not the process default's.
func newObservedSystem(t *testing.T) (*System, *obs.Observer) {
	t.Helper()
	o := obs.New(obs.Options{Log: obs.LogOptions{SampleEvery: 1}})
	s, err := NewSystem(Options{RegionBytes: 1 << 30, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, o
}

// A completed query must land in the wide-event log with its placement,
// result sizes, phase breakdown, and simulated timings filled in.
func TestObserveCompletedQuery(t *testing.T) {
	s, o := newObservedSystem(t)
	tbl, hits := loadTable(t, s, 5_000, workload.HitQ1, 0.2)
	col, _ := tbl.Column("address_string")
	ctx := obs.WithQueryInfo(context.Background(), "s1", "7")
	res, err := s.Exec(ctx, col.Strs, workload.Q1Regex, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	evs := o.Log.Window(0)
	if len(evs) != 1 {
		t.Fatalf("events: got %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Outcome != obs.OutcomeCompleted || ev.Placement != "fpga" {
		t.Fatalf("outcome/placement: %s/%s", ev.Outcome, ev.Placement)
	}
	if ev.Session != "s1" || ev.Query != "7" {
		t.Fatalf("session identity not threaded: %q#%q", ev.Session, ev.Query)
	}
	if ev.Pattern != workload.Q1Regex || ev.Rows != 5_000 || ev.Matches != hits {
		t.Fatalf("pattern/rows/matches: %q %d %d, want %q 5000 %d",
			ev.Pattern, ev.Rows, ev.Matches, workload.Q1Regex, hits)
	}
	if ev.Bytes <= 0 || ev.Jobs < 1 {
		t.Fatalf("bytes/jobs: %d/%d", ev.Bytes, ev.Jobs)
	}
	if ev.TotalNS != int64(res.Total()/sim.Nanosecond) {
		t.Fatalf("total: %d, want %d", ev.TotalNS, int64(res.Total()/sim.Nanosecond))
	}
	if len(ev.Phases) == 0 || ev.Phases[PhaseHardware] <= 0 {
		t.Fatalf("phase breakdown missing: %+v", ev.Phases)
	}
	if ev.SimNS <= 0 {
		t.Fatalf("no simulated completion timestamp: %+v", ev)
	}
	// A clean single query must leave the SLO engine silent.
	if o.Alerting() {
		t.Fatal("clean query latched the burn alert")
	}
	rep := o.SLO.Report()
	if rep.Errors != 0 || rep.Submitted != 1 {
		t.Fatalf("SLO totals: %+v", rep)
	}
}

// Shed, deadline-refused, and canceled queries must be classified into
// their own outcomes, and only the first two count as SLI errors.
func TestObserveErrorOutcomes(t *testing.T) {
	s, o := newObservedSystem(t)
	tbl, _ := loadTable(t, s, 5_000, workload.HitQ1, 0.2)
	col, _ := tbl.Column("address_string")

	// Admission cap of one byte: the dispatch sheds immediately.
	s.HAL.SetAdmission(hal.AdmissionLimits{MaxBytes: 1, Policy: hal.PolicyShed})
	if _, err := s.Exec(context.Background(), col.Strs, workload.Q1Regex, token.Options{}); err == nil {
		t.Fatal("over-cap exec did not error")
	}
	s.HAL.SetAdmission(hal.AdmissionLimits{})

	// A one-nanosecond budget: the ETA check refuses before dispatch.
	ctx := hal.WithBudget(context.Background(), sim.Nanosecond)
	if _, err := s.Exec(ctx, col.Strs, workload.Q1Regex, token.Options{}); err == nil {
		t.Fatal("impossible budget did not error")
	}

	// Cancel while queued behind a paused device.
	s.HAL.Pause()
	cctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Exec(cctx, col.Strs, workload.Q1Regex, token.Options{})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.QueuedBytes() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	s.HAL.Resume()

	want := map[obs.Outcome]int{}
	for _, ev := range o.Log.Window(0) {
		want[ev.Outcome]++
		if ev.Outcome != obs.OutcomeCompleted && ev.Cause == "" {
			t.Fatalf("error event without a cause: %+v", ev)
		}
	}
	if want[obs.OutcomeShed] != 1 || want[obs.OutcomeDeadline] != 1 || want[obs.OutcomeCanceled] != 1 {
		t.Fatalf("outcome split: %+v, want one shed, one deadline, one canceled", want)
	}
	// Canceled is the caller's doing, not the system's error budget.
	if rep := o.SLO.Report(); rep.Errors != 2 {
		t.Fatalf("SLI errors: got %d, want 2 (shed + deadline)", rep.Errors)
	}
}

// Two fresh systems running the identical workload export byte-identical
// JSONL: the wide events carry no wall-clock contamination.
func TestObserveJSONLBitIdentical(t *testing.T) {
	run := func() string {
		o := obs.New(obs.Options{Log: obs.LogOptions{SampleEvery: 1}})
		s, err := NewSystem(Options{RegionBytes: 1 << 30, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rows, _ := workload.NewGenerator(7, 64).Table(3_000, workload.HitQ1, 0.2)
		tbl, err := s.DB.LoadAddressTable("address_table", rows)
		if err != nil {
			t.Fatal(err)
		}
		col, _ := tbl.Column("address_string")
		for i := 0; i < 5; i++ {
			if _, err := s.Exec(context.Background(), col.Strs, workload.Q1Regex, token.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := o.Log.WriteJSONL(&buf, 0); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("no events exported")
	}
	if a != b {
		t.Fatalf("wide-event JSONL differs across identical runs:\n%s\nvs\n%s", a, b)
	}
}

// Every placement ends in the one finish step, so the wide event, the
// decision record and the Result must tell the same story: one total, a
// phase breakdown that sums to it, and one topdown attribution.
func TestFinishStepSinksAgree(t *testing.T) {
	const tooWide = `(abcdefghij|klmnopqrst|uvwxyzabcd|efghijklmn)`
	cases := []struct {
		name      string
		dep       *fpga.Deployment
		faults    faults.Options
		placement string
		outcome   obs.Outcome
		// run executes the query; res is nil for the software placement,
		// which finishes through FinishSoftware instead of Exec.
		run func(t *testing.T, s *System, col *bat.Strings) (*explain.Record, *Result)
	}{
		{name: "fpga", placement: "fpga", outcome: obs.OutcomeCompleted},
		{name: "hybrid", dep: smallDeployment(), placement: "hybrid", outcome: obs.OutcomeCompleted},
		{name: "degraded", faults: faults.Options{DropEnabled: true, DropEngine: 0},
			placement: "fpga", outcome: obs.OutcomeDegraded},
		{name: "software", placement: "software", outcome: obs.OutcomeCompleted,
			run: func(t *testing.T, s *System, col *bat.Strings) (*explain.Record, *Result) {
				rec, err := s.ExplainCost(tooWide, col.Count(), 64)
				if err != nil {
					t.Fatal(err)
				}
				if rec.Offloads() {
					t.Fatalf("chosen %q, want software", rec.Chosen)
				}
				rec.Session, rec.Query = "s9", "3"
				s.FinishSoftware(rec, perf.Work{Rows: col.Count(), RegexRows: col.Count(), Steps: 40_000})
				return rec, nil
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := obs.New(obs.Options{Log: obs.LogOptions{SampleEvery: 1}})
			s, err := NewSystem(Options{
				RegionBytes: 1 << 30,
				Deployment:  c.dep,
				Telemetry:   telemetry.NewRegistry(),
				Recorder:    flightrec.New(256),
				Faults:      faults.New(c.faults),
				Auditor:     explain.NewAuditor(explain.Options{}),
				Obs:         o,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			tbl, _ := loadTable(t, s, 10_000, workload.HitQH, 0.2)
			col, _ := tbl.Column("address_string")
			run := c.run
			if run == nil {
				run = func(t *testing.T, s *System, col *bat.Strings) (*explain.Record, *Result) {
					res, err := s.Exec(context.Background(), col, workload.QH, token.Options{})
					if err != nil {
						t.Fatal(err)
					}
					return res.Decision, res
				}
			}
			rec, res := run(t, s, col.Strs)

			evs := o.Log.Window(0)
			if len(evs) != 1 {
				t.Fatalf("events: got %d, want 1", len(evs))
			}
			ev := evs[0]
			if ev.Placement != c.placement || ev.Outcome != c.outcome {
				t.Fatalf("placement/outcome: %s/%s, want %s/%s", ev.Placement, ev.Outcome, c.placement, c.outcome)
			}
			if rec == nil || rec.Actual == nil {
				t.Fatalf("record not finished: %+v", rec)
			}
			if ev.TotalNS <= 0 || ev.TotalNS != rec.Actual.TotalNS {
				t.Errorf("event total %dns, record actual %dns", ev.TotalNS, rec.Actual.TotalNS)
			}
			var sum int64
			for _, v := range ev.Phases {
				sum += v
			}
			if sum != ev.TotalNS {
				t.Errorf("phases %v sum to %dns, want total %dns", ev.Phases, sum, ev.TotalNS)
			}
			if ev.Topdown == nil || ev.Topdown != rec.Topdown {
				t.Errorf("event topdown %+v is not the record's %+v", ev.Topdown, rec.Topdown)
			}
			if res == nil {
				if ev.Session != "s9" || ev.Query != "3" {
					t.Errorf("software event ids %q#%q, want s9#3", ev.Session, ev.Query)
				}
				return
			}
			if got := ns(res.Total()); got != ev.TotalNS {
				t.Errorf("Result total %dns, event %dns", got, ev.TotalNS)
			}
			if res.Topdown != ev.Topdown {
				t.Errorf("Result topdown %+v is not the event's %+v", res.Topdown, ev.Topdown)
			}
			for _, ph := range res.Breakdown.Phases() {
				if got, want := ev.Phases[ph], ns(res.Breakdown.Get(ph)); got != want {
					t.Errorf("phase %q: event %dns, Result %dns", ph, got, want)
				}
			}
		})
	}
}
