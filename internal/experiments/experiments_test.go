package experiments

import (
	"bytes"
	"strings"
	"testing"

	"attila/internal/gpu"
)

// tinyParams keeps experiment tests fast.
func tinyParams() RunParams {
	return RunParams{Width: 96, Height: 64, Frames: 1, Aniso: 2, Seed: 1, MaxCycles: 200_000_000}
}

func TestTablesPrint(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf, gpu.Baseline())
	out := buf.String()
	for _, want := range []string{"Streamer", "Hierarchical Z", "Triangle Setup", "4 channels"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	Table2(&buf, gpu.Baseline())
	out = buf.String()
	for _, want := range []string{"Texture", "16", "256", "1:2 and 1:4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 missing %q:\n%s", want, out)
		}
	}
}

func TestFig10ZeroDiff(t *testing.T) {
	res, err := Fig10(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.DiffPixels != 0 || res.MaxDelta != 0 {
		t.Fatalf("simulator diverges from reference: %d px, max delta %d",
			res.DiffPixels, res.MaxDelta)
	}
	if res.SimFrame == nil || res.RefFrame == nil {
		t.Fatal("missing frames")
	}
}

func TestFig7ShapeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := tinyParams()
	rows, err := Fig7(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Within each (workload, mode) group: 1 TU must not be faster
	// than 3 TUs (texture capacity can only hurt when removed).
	byKey := map[string]map[int]int64{}
	for _, r := range rows {
		key := r.Workload + "/" + r.Mode.String()
		if byKey[key] == nil {
			byKey[key] = map[int]int64{}
		}
		byKey[key][r.TUs] = r.Cycles
	}
	for key, g := range byKey {
		if g[1] < g[3] {
			t.Errorf("%s: 1 TU (%d) faster than 3 TU (%d)", key, g[1], g[3])
		}
	}
}

func TestEmbeddedRuns(t *testing.T) {
	row, err := Embedded(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if row.Cycles <= 0 || row.FPS <= 0 {
		t.Fatalf("embedded result: %+v", row)
	}
}

func TestFig8CollectsSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := tinyParams()
	p.Frames = 1
	rows, series, err := Fig8(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.HitRate <= 0 || r.HitRate > 1 {
			t.Fatalf("hit rate out of range: %+v", r)
		}
		if r.TexMemBytes <= 0 {
			t.Fatalf("no texture traffic: %+v", r)
		}
	}
	if series == nil || len(series.Cycle) == 0 {
		t.Fatal("missing hit-rate series")
	}
}

func TestFig9CollectsUtilization(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	series, err := Fig9(tinyParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series: %d", len(series))
	}
	for _, s := range series {
		if len(s.Cycle) == 0 || len(s.Shader) != len(s.Cycle) {
			t.Fatalf("%s: empty series", s.Config.Label)
		}
		for _, u := range [][]float64{s.Shader, s.Texture, s.ROP, s.Memory} {
			for i, v := range u {
				if v < 0 || v > 1.0001 {
					t.Fatalf("%s: utilization out of range at %d: %v", s.Config.Label, i, v)
				}
			}
		}
		if s.AvgTexture <= 0 {
			t.Fatalf("%s: no texture activity", s.Config.Label)
		}
	}
	// The 1 TU window configuration must have the highest TU
	// utilization of the three (the Figure 9 claim).
	if !(series[1].AvgTexture > series[0].AvgTexture &&
		series[1].AvgTexture > series[2].AvgTexture) {
		t.Fatalf("1 TU not the most TU-bound: %v %v %v",
			series[0].AvgTexture, series[1].AvgTexture, series[2].AvgTexture)
	}
}

func TestAblationTogglesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Ablation(tinyParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows: %d", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
		if r.Cycles <= 0 {
			t.Fatalf("%s: no cycles", r.Name)
		}
	}
	for _, want := range []string{"baseline", "no-hz", "no-zcompress", "no-earlyz", "two-sided-st"} {
		if !names[want] {
			t.Fatalf("missing ablation %q", want)
		}
	}
}

func TestScalingMonotonicEnough(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Scaling(tinyParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// unified-8 must beat unified-1 on a fragment-heavy scene.
	var c1, c8 int64
	for _, r := range rows {
		switch r.Config {
		case "unified-1":
			c1 = r.Cycles
		case "unified-8":
			c8 = r.Cycles
		}
	}
	if c8 >= c1 {
		t.Fatalf("8 shaders (%d) not faster than 1 (%d)", c8, c1)
	}
}
