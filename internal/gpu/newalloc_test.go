package gpu

import "testing"

// TestNewAllocBudget pins what building a machine allocates: gpu.New at
// the benchmark sweep's 128x96 for each of its four machines. The
// caches' lines, the signals' slots, the memory transactions and the
// shader threads come from slabs, so a machine is a few hundred
// allocations however many lines, slots and threads it has; a count
// above its pin means a part went back to one allocation per object.
// The pins are the counts measured when the slabs went in, plus a
// little over 5 %: lower them when a change lowers the counts.
func TestNewAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		budget float64
	}{
		{"baseline", Baseline(), 960},
		{"baseline-unified", BaselineUnified(), 930},
		{"casestudy:2:window", CaseStudy(2, ScheduleWindow), 730},
		{"embedded", Embedded(), 560},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := testing.AllocsPerRun(5, func() {
				if _, err := New(tc.cfg, 128, 96); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("gpu.New(%s, 128, 96): %.0f allocations", tc.name, n)
			if n > tc.budget {
				t.Errorf("gpu.New(%s, 128, 96) made %.0f allocations, more than %.0f: a part allocates per line, slot or object again",
					tc.name, n, tc.budget)
			}
		})
	}
}
