package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables: BENCHMARK.json and the tables in
// metrics.go name the same workloads and metrics, in the same order,
// with the same units, directions, bounds and reasons.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, table has %s / %s", i, got, w.Name, w.Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the table", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, table has %+v", i, got, d)
		}
		if !name.MatchString(d.Name) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end_to_end %q: bad name or bound %g", d.Name, d.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the table", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, table has %+v", i, got, d)
		}
		if !name.MatchString(d.Name) {
			t.Errorf("per_layer %q: bad name", d.Name)
		}
	}
}

// TestSmoke drives the whole harness at smoke size: every workload's
// untraced run and correctness gate, and the traced run — every kernel
// and every per-layer metric — for one scene workload and for the
// sweep, the two code paths a traced run has. Every name of
// BENCHMARK.json must come out of it.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	e := &env{seed: 1, seconds: 1, smoke: true, out: t.TempDir()}
	for _, def := range workloads {
		o, err := measure(e, def, false)
		if err != nil {
			t.Fatal(err)
		}
		if !o.Correct || o.Attempted < 1 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d", def.Name, o.Correct, o.Attempted, o.Failed)
		}
		for _, m := range b.EndToEnd {
			if v, ok := o.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: end_to_end %s = %+v (present %t), want a positive value in %s", def.Name, m.Name, v, ok, m.Unit)
			}
		}
		if len(o.Metrics) != len(b.EndToEnd) {
			t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", def.Name, len(o.Metrics), len(b.EndToEnd))
		}
	}
	for _, name := range []string{"shader-alu", "jobd-sweep"} {
		def, _ := findWorkload(name)
		o, err := measure(e, def, true)
		if err != nil {
			t.Fatal(err)
		}
		if !o.Correct {
			t.Errorf("%s traced: %d of %d failed", name, o.Failed, o.Attempted)
		}
		for _, m := range b.PerLayer {
			if v, ok := o.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s traced: per_layer %s missing or in %q, want %q", name, m.Name, v.Unit, m.Unit)
			}
		}
		if len(o.Metrics) != len(b.PerLayer) {
			t.Errorf("%s traced: %d metrics printed, BENCHMARK.json lists %d", name, len(o.Metrics), len(b.PerLayer))
		}
		if _, err := os.Stat(e.out + "/" + name + "/spans.json"); err != nil {
			t.Errorf("%s traced: %v", name, err)
		}
		// The workloads must separate the layers they were built to separate.
		if s, tu := o.Metrics["gpu.share.shader"].Value, o.Metrics["gpu.share.texunit"].Value; name == "shader-alu" && s <= tu {
			t.Errorf("shader-alu: shader share %.3f is not above texture-unit share %.3f", s, tu)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g; want 3.5, 31", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-sample quartiles = %g, %g; want 0.75, 2.25", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	val := func(s ...float64) suiteValue { return suiteValue{Median: median(s), N: len(s), Samples: s} }
	for _, tc := range []struct {
		a, b suiteValue
		want string
	}{
		{val(1, 1.01, 0.99), val(1.05, 1.04, 1.06), "ok"},
		{val(1, 1.01, 0.99), val(1.2, 1.21, 1.19), "regressed"},
		{val(1, 1.4, 0.7), val(1, 1.01, 0.99), "unresolved"},
	} {
		if got := judge(d, tc.a, tc.b); got != tc.want {
			t.Errorf("judge(%v, %v) = %s, want %s", tc.a.Samples, tc.b.Samples, got, tc.want)
		}
	}
	up := metricDef{Name: "host_kcycles_per_s", Better: "higher", Bound: 0.10}
	if got := judge(up, val(100, 101, 99), val(80, 81, 79)); got != "regressed" {
		t.Errorf("a rate that fell 20%% judged %s", got)
	}
}
