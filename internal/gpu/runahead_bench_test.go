package gpu

import (
	"math"
	"testing"
	"time"

	"attila/internal/emu/shaderemu"
	"attila/internal/isa"
)

// BenchmarkRunAheadHandoff measures what handing a segment to the helper
// costs, against about 69 ns a Step. Each segment is one instruction
// (END), so the numbers are the handoff's own. "parked" hands one
// segment at a time to a helper parked on its empty queue and waits for
// it: ns/op is the round trip. "busy" hands 64 at a time, and the helper
// takes most of them from a queue it has not emptied. dispatch-ns/op is
// what the clock goroutine pays at dispatch: the state word, the channel
// send and, to a parked helper, waking it. A join that finds its segment
// done pays one atomic load.
func BenchmarkRunAheadHandoff(b *testing.B) {
	for _, bc := range []struct {
		name  string
		batch int
	}{{"parked", 1}, {"busy", 64}} {
		b.Run(bc.name, func(b *testing.B) {
			prog := isa.MustAssemble(isa.FragmentProgram, "end", "END")
			emu := shaderemu.New(prog, nil)
			s := &ShaderUnit{threads: make([]shaderThread, bc.batch)}
			units := []*ShaderUnit{s}
			h := &runAhead{}
			h.init(units)
			h.min = 1
			h.start(units)
			defer h.stop(units)
			clean := true
			for i := range s.threads {
				th := &s.threads[i]
				th.emu, th.ops, th.t, th.clean, th.faultPC = emu, prog.Decoded(), emu.NewThread(), &clean, math.MaxInt
			}
			var dispatch time.Duration
			b.ResetTimer()
			for n := 0; n < b.N; n += bc.batch {
				t0 := time.Now()
				for i := range s.threads {
					th := &s.threads[i]
					th.t.Reset(prog.TempsUsed())
					s.dispatch(th)
				}
				dispatch += time.Since(t0)
				for i := range s.threads {
					th := &s.threads[i]
					for th.seg.Load() == segQueued || th.seg.Load() == segRunning {
					}
					th.join()
				}
			}
			b.ReportMetric(float64(dispatch.Nanoseconds())/float64(b.N), "dispatch-ns/op")
		})
	}
}
