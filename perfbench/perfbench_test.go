package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the test
// checks the emitted metrics against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// issueMetrics are the metrics the benchmark was specified with; each must
// be declared in BENCHMARK.json and emitted.
var issueMetrics = []metricSpec{
	{"stmt_per_s", "stmt/s"}, {"latency_p50_ms", "ms"}, {"latency_p95_ms", "ms"},
	{"alloc_mb_per_stmt", "MB"}, {"heap_live_mb", "MB"}, {"sim_ms_per_stmt", "ms"},
	{"setup_s", "s"},
	{"sql.parse_us", "us"}, {"sql.self_ms", "ms"}, {"plan.cache_hit_ratio", "ratio"},
	{"core.estimate_ms", "ms"}, {"core.estimate_calls_per_stmt", "count"},
	{"core.udf_ms", "ms"}, {"core.config_cache_hit_ratio", "ratio"},
	{"core.hybrid_post_ms", "ms"}, {"core.hybrid_yield", "ratio"}, {"compile.us", "us"},
	{"hal.submit_ms", "ms"}, {"hal.await_ms", "ms"}, {"hal.queue_wait_ms", "ms"},
	{"engine.execute_ms", "ms"}, {"pu.mb_per_s", "MB/s"}, {"pu.cycles_per_stmt", "count"},
	{"memmodel.simulate_us", "us"}, {"memmodel.grants_per_stmt", "count"},
	{"softregex.backtrack_mb_per_s", "MB/s"}, {"softregex.steps_per_row", "count"},
	{"strmatch.like_mb_per_s", "MB/s"}, {"invindex.lookup_us", "us"},
	{"invindex.build_ms", "ms"}, {"mdb.insert_us", "us"},
	{"shmem.live_bytes_per_stmt", "B"}, {"sinks.observe_us", "us"},
	{"runtime.gc_cpu_frac", "ratio"}, {"trace.stmt_per_s", "stmt/s"},
	{"trace.untraced_stmt_per_s", "stmt/s"}, {"trace.overhead_frac", "ratio"},
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestWorkloadsEmitEveryMetric runs every workload briefly, untraced and
// traced, including two-sessions, which BENCHMARK.json does not list, and
// checks the oracle passed on every statement and that exactly the declared
// metrics are emitted, each with its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	declared := make(map[string]string)
	for _, m := range append(append([]metricSpec(nil), b.EndToEnd...), b.PerLayer...) {
		declared[m.Name] = m.Unit
	}
	for _, m := range issueMetrics {
		if declared[m.Name] != m.Unit {
			t.Errorf("BENCHMARK.json declares %s with unit %q, want %q", m.Name, declared[m.Name], m.Unit)
		}
	}
	for _, l := range layers {
		if declared["self."+l+"_ms"] != "ms" {
			t.Errorf("BENCHMARK.json does not declare self.%s_ms in ms", l)
		}
	}
	for _, w := range b.Workloads {
		if specs[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists unknown workload %s", w.Name)
		}
	}
	for name := range specs {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			rc, res, err := run(options{workload: name, seed: 1, seconds: 1, trace: trace, traceOut: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d; context %v",
					name, trace, res.Correct, res.Attempted, res.Failed, rc)
			}
			if f := rc["failed_frac"]; !trace && f != 0.0 {
				t.Errorf("%s: failed_frac = %v", name, f)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics emitted, %d declared", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestLikeOracle(t *testing.T) {
	cases := []struct {
		pattern, s string
		fold, want bool
	}{
		{"%Strasse%", "44 Koblenzer Strasse", false, true},
		{"%strasse%", "44 Koblenzer Strasse", false, false},
		{"%strasse%", "44 Koblenzer Strasse", true, true},
		{"Anna%", "Anna|Koch", false, true},
		{"%Koch_%", "Anna|Koch", false, false},
		{"%Koch_%", "Anna|Koch|", false, true},
		{"%special%requests%", "bold special pinto requests", false, true},
		{"%special%requests%", "requests special", false, false},
		{"", "", false, true},
	}
	for _, c := range cases {
		if got := likeMatch(c.pattern, c.s, c.fold); got != c.want {
			t.Errorf("likeMatch(%q, %q, %t) = %t", c.pattern, c.s, c.fold, got)
		}
	}
	if !containsAll("Alan & Turing", "x|alan-turing|y") || containsAll("Alan & Turing", "Alan Turingx") {
		t.Error("containsAll disagrees with word-set semantics")
	}
}

// TestSelfTimesSumToWall checks the top-down assignment on a tree whose
// replays overrun their parents.
func TestSelfTimesSumToWall(t *testing.T) {
	spans := []span{
		{ID: 1, Name: rootSpan, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.hudf", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "hal", Start: 200, End: 260, Replay: true},
		{ID: 4, Parent: 3, Name: "engine", Start: 300, End: 370, Replay: true},
		{ID: 5, Parent: 2, Name: "sinks", Start: 400, End: 430, Replay: true},
		{ID: 6, Parent: 1, Name: "sql", Start: 500, End: 505, Replay: true},
	}
	self := selfTimes(spans, 1)
	want := map[string]int64{"unattributed": 15, "sql": 5, "core.hudf": 0, "hal": 0, "engine": 60, "sinks": 20}
	var sum int64
	for k, v := range self {
		sum += v
		if v != want[k] {
			t.Errorf("self[%s] = %d, want %d", k, v, want[k])
		}
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the wall time 100", sum)
	}
}
