package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// compareFiles prints, per workload and end-to-end metric, the two
// medians, the ratio B/A with A as its base, the bound, and a verdict:
// regressed when B is worse than A by more than the bound, unresolved
// when either side's median is itself uncertain by more than the bound
// (so the comparison cannot tell), ok otherwise. It returns 1 unless
// every row is ok.
func compareFiles(pathA, pathB string) int {
	a, err := readSuite(pathA)
	if err == nil {
		var b *suiteReport
		if b, err = readSuite(pathB); err == nil {
			return compareSuites(a, b)
		}
	}
	logf("%v", err)
	return 2
}

func readSuite(path string) (*suiteReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareSuites(a, b *suiteReport) int {
	fmt.Printf("# A: %s\n# B: %s\n", a.Host, b.Host)
	fmt.Printf("%-14s %-20s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "B/A", "bound", "spreadA", "spreadB", "verdict")
	status := 0
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil || wa.Skipped != "" || wb.Skipped != "" {
			fmt.Printf("%-14s skipped or missing on one side\n", w.Name)
			continue
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Printf("%-14s %-20s A failed %d of %d, B failed %d of %d  regressed\n",
				w.Name, "fail_share", wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			status = 1
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			verdict := judge(d, va, vb)
			if verdict != "ok" {
				status = 1
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %9.4f %6.0f%% %7.1f%% %7.1f%%  %s\n",
				w.Name, d.Name, va.Median, vb.Median, vb.Median/va.Median, 100*d.Bound,
				100*spread(va.Samples), 100*spread(vb.Samples), verdict)
		}
	}
	return status
}

func judge(d metricDef, a, b suiteValue) string {
	if a.N == 0 || b.N == 0 || a.Median == 0 {
		return "unresolved"
	}
	worse := b.Median/a.Median - 1
	if d.Better == "higher" {
		worse = 1 - b.Median/a.Median
	}
	switch {
	case worse > d.Bound:
		return "regressed"
	case uncertainty(a.Samples) > d.Bound || uncertainty(b.Samples) > d.Bound:
		return "unresolved"
	}
	return "ok"
}

// uncertainty of a median of n samples: their spread scaled by 1/sqrt(n),
// as for any average of n noisy values. Three reps that scatter by 30 %
// pin their median to ~17 %; four hundred set-ups that scatter by 50 %
// pin theirs to 2.5 %.
func uncertainty(samples []float64) float64 {
	if len(samples) == 0 {
		return math.Inf(1)
	}
	return spread(samples) / math.Sqrt(float64(len(samples)))
}
