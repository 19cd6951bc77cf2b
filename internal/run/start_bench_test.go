package run

import (
	"path/filepath"
	"testing"

	"attila/internal/gpu"
	"attila/internal/obsv/trace"
	"attila/internal/workload"
)

// BenchmarkStart times building one job the way the job server builds
// each of the benchmark sweep's four kinds at 128x96x2: the machine,
// its command stream (the workload built against it), span tracing at
// 1 in 64 and a checkpoint engine every 50 000 cycles. Nothing runs.
// ns/op and allocs/op are the construction cost a sweep pays per job;
// go test -bench BenchmarkStart -benchmem ./internal/run prints them.
func BenchmarkStart(b *testing.B) {
	for _, k := range []struct {
		name, workload string
		cfg            gpu.Config
	}{
		{"simple-baseline", "simple", gpu.Baseline()},
		{"ut2004-unified", "ut2004", gpu.BaselineUnified()},
		{"doom3-casestudy2", "doom3", gpu.CaseStudy(2, gpu.ScheduleWindow)},
		{"spinner-embedded", "spinner", gpu.Embedded()},
	} {
		b.Run(k.name, func(b *testing.B) {
			spec := Spec{
				Config: k.cfg, Width: 128, Height: 96,
				Source: Workload(k.workload, workload.Params{Width: 128, Height: 96, Frames: 2, Aniso: 8, Seed: 1}),
				Spans:  trace.Options{SampleRate: 64},
				Checkpoint: Checkpoint{
					Path: filepath.Join(b.TempDir(), "job.ckpt"), Interval: 50_000,
				},
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Start(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
