package obsv

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"attila/internal/core"
)

// DefaultProfileSample is the default box-clock sampling period: one
// timed cycle out of 64 keeps the overhead well under the noise floor
// while still attributing host time faithfully (sampled cycles are
// representative).
const DefaultProfileSample = 64

// Profiler attributes host wall-clock time to individual boxes via
// the simulator's sampled ClockObserver hook. Off by default: a
// simulator without an attached profiler pays one branch per cycle.
// One profiler may watch several runs at once (a job pool's), so the
// accumulator is mutex-protected, which is cheap because only sampled
// cycles report.
type Profiler struct {
	// SampleEvery is the cycle sampling period passed to the
	// simulator; zero selects DefaultProfileSample. Set before Attach.
	SampleEvery int64

	mu   sync.Mutex
	accs map[string]*boxAcc
}

type boxAcc struct {
	ns      int64
	samples int64
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{accs: make(map[string]*boxAcc)}
}

// Attach installs the profiler on the simulator's clock loop. One
// profiler may be attached to several simulators in turn (an
// experiment sweep); attribution is keyed by box name, so repeated
// runs aggregate.
func (p *Profiler) Attach(sim *core.Simulator) {
	every := p.SampleEvery
	if every <= 0 {
		every = DefaultProfileSample
	}
	sim.SetClockObserver(p, every)
}

// BoxClocked implements core.ClockObserver.
func (p *Profiler) BoxClocked(box core.Box, hostNs int64) {
	name := box.BoxName()
	p.mu.Lock()
	a := p.accs[name]
	if a == nil {
		a = &boxAcc{}
		p.accs[name] = a
	}
	a.ns += hostNs
	a.samples++
	p.mu.Unlock()
}

// BoxTime is one row of the host-time attribution table.
type BoxTime struct {
	Box     string  `json:"box"`
	HostNs  int64   `json:"hostNs"`  // summed sampled nanoseconds
	Samples int64   `json:"samples"` // timed Clock calls
	MeanNs  float64 `json:"meanNs"`  // per sampled Clock call
	Share   float64 `json:"share"`   // fraction of all sampled box time
}

// Report returns the attribution table ranked by host time, largest
// first (ties by name for a stable order).
func (p *Profiler) Report() []BoxTime {
	p.mu.Lock()
	rows := make([]BoxTime, 0, len(p.accs))
	var total int64
	for name, a := range p.accs {
		rows = append(rows, BoxTime{
			Box: name, HostNs: a.ns, Samples: a.samples,
		})
		total += a.ns
	}
	p.mu.Unlock()
	for i := range rows {
		if rows[i].Samples > 0 {
			rows[i].MeanNs = float64(rows[i].HostNs) / float64(rows[i].Samples)
		}
		if total > 0 {
			rows[i].Share = float64(rows[i].HostNs) / float64(total)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].HostNs != rows[j].HostNs {
			return rows[i].HostNs > rows[j].HostNs
		}
		return rows[i].Box < rows[j].Box
	})
	return rows
}

// WriteTable renders the ranked attribution table for humans.
func (p *Profiler) WriteTable(w io.Writer) error {
	rows := p.Report()
	if len(rows) == 0 {
		_, err := fmt.Fprintln(w, "profiler: no samples (was the run long enough?)")
		return err
	}
	if _, err := fmt.Fprintf(w, "%-24s %7s %12s %10s %12s\n",
		"box", "share", "sampled ns", "samples", "ns/clock"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-24s %6.1f%% %12d %10d %12.0f\n",
			r.Box, 100*r.Share, r.HostNs, r.Samples, r.MeanNs); err != nil {
			return err
		}
	}
	return nil
}
