// Package chaos is a deterministic fault-injection engine for the
// simulator: a seeded Plan describes which faults to inject where and
// when, and an Injector applies them through the framework's seams —
// the clock gate (core.ClockGate), the memory controller's
// transaction hook (mem.TxFault), the signal corruption primitive
// (core.Signal.CorruptOne) and a corrupting trace-reader wrapper.
//
// Everything is deterministic: the same plan against the same workload
// injects the same fault at the same cycle, so a chaos failure
// reproduces exactly. Each fault class surfaces as the simulator error
// its real-world counterpart would: an injected panic is reported as
// core.ErrPanic naming the victim box, a dropped memory transaction or
// a permanently stalled box starves the pipeline until the watchdog
// reports core.ErrDeadlock, and trace corruption surfaces as
// trace.ErrCorrupt/ErrTruncated.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"attila/internal/core"
	"attila/internal/mem"
)

// ErrInjected marks a panic raised by the chaos engine; the simulator
// wraps it into a *core.CrashError, so errors.Is(err, core.ErrPanic)
// holds and the crash report names the victim box.
var ErrInjected = errors.New("chaos: injected fault")

// injectedPanic is the value an injected panic carries.
type injectedPanic struct {
	cycle int64
	box   string
}

func (p *injectedPanic) Error() string {
	return fmt.Sprintf("chaos: injected fault at cycle %d in %s", p.cycle, p.box)
}

func (p *injectedPanic) Unwrap() error { return ErrInjected }

// PanicFault crashes a box at a cycle.
type PanicFault struct {
	Cycle int64
	Box   string // box name; empty means CommandProcessor
}

// StallFault skips a box's clock for a cycle range. An open-ended
// stall (To == 0) of a critical box starves the pipeline until the
// watchdog fires.
type StallFault struct {
	Box      string
	From, To int64 // inclusive; To == 0 means forever
}

// MemFault mistreats a fraction of memory transactions.
type MemFault struct {
	Mode  string  // "drop", "delay" or "dup"
	Rate  float64 // per-transaction probability
	Delay int     // extra cycles for "delay" (default 64)
}

// SignalFault nils one in-flight payload of a named signal at a
// cycle, crashing the consumer on its next read.
type SignalFault struct {
	Name  string
	Cycle int64
}

// TraceFault corrupts the trace byte stream.
type TraceFault struct {
	Mode   string // "flip" or "trunc"
	Offset int64
}

// Plan is a parsed chaos specification.
type Plan struct {
	Seed   int64
	Panic  *PanicFault
	Stall  *StallFault
	Mem    *MemFault
	Signal *SignalFault
	Trace  *TraceFault
}

// Parse builds a Plan from a comma-separated spec:
//
//	seed=N                 rng seed (default 1)
//	panic@cycle=C[:box]    panic inside box's Clock at cycle C
//	stall=box:C1-C2        skip box's clocks for cycles C1..C2 (C2=0: forever)
//	mem=MODE:RATE[:DELAY]  drop|delay|dup a RATE fraction of MC transactions
//	signal=name@cycle      corrupt one in-flight object of the signal
//	trace=flip:OFF         flip one bit of the trace byte at OFF
//	trace=trunc:OFF        truncate the trace at OFF bytes
func Parse(spec string) (*Plan, error) {
	p := &Plan{Seed: 1}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("chaos: empty spec")
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: %q is not key=value", part)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q", val)
			}
			p.Seed = n
		case "panic@cycle":
			cycleStr, box, _ := strings.Cut(val, ":")
			c, err := strconv.ParseInt(cycleStr, 10, 64)
			if err != nil || c < 0 {
				return nil, fmt.Errorf("chaos: bad panic cycle %q", cycleStr)
			}
			if box == "" {
				box = "CommandProcessor"
			}
			p.Panic = &PanicFault{Cycle: c, Box: box}
		case "stall":
			box, rng, ok := strings.Cut(val, ":")
			if !ok || box == "" {
				return nil, fmt.Errorf("chaos: stall wants box:C1-C2, got %q", val)
			}
			fromStr, toStr, _ := strings.Cut(rng, "-")
			from, err := strconv.ParseInt(fromStr, 10, 64)
			if err != nil || from < 0 {
				return nil, fmt.Errorf("chaos: bad stall start %q", fromStr)
			}
			var to int64
			if toStr != "" {
				to, err = strconv.ParseInt(toStr, 10, 64)
				if err != nil || (to != 0 && to < from) {
					return nil, fmt.Errorf("chaos: bad stall end %q", toStr)
				}
			}
			p.Stall = &StallFault{Box: box, From: from, To: to}
		case "mem":
			fields := strings.Split(val, ":")
			if len(fields) < 2 {
				return nil, fmt.Errorf("chaos: mem wants MODE:RATE, got %q", val)
			}
			mode := fields[0]
			if mode != "drop" && mode != "delay" && mode != "dup" {
				return nil, fmt.Errorf("chaos: unknown mem mode %q", mode)
			}
			rate, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || rate < 0 || rate > 1 {
				return nil, fmt.Errorf("chaos: bad mem rate %q", fields[1])
			}
			mf := &MemFault{Mode: mode, Rate: rate, Delay: 64}
			if len(fields) > 2 {
				d, err := strconv.Atoi(fields[2])
				if err != nil || d < 1 {
					return nil, fmt.Errorf("chaos: bad mem delay %q", fields[2])
				}
				mf.Delay = d
			}
			p.Mem = mf
		case "signal":
			name, cycleStr, ok := strings.Cut(val, "@")
			if !ok || name == "" {
				return nil, fmt.Errorf("chaos: signal wants name@cycle, got %q", val)
			}
			c, err := strconv.ParseInt(cycleStr, 10, 64)
			if err != nil || c < 0 {
				return nil, fmt.Errorf("chaos: bad signal cycle %q", cycleStr)
			}
			p.Signal = &SignalFault{Name: name, Cycle: c}
		case "trace":
			mode, offStr, ok := strings.Cut(val, ":")
			if !ok || (mode != "flip" && mode != "trunc") {
				return nil, fmt.Errorf("chaos: trace wants flip:OFF or trunc:OFF, got %q", val)
			}
			off, err := strconv.ParseInt(offStr, 10, 64)
			if err != nil || off < 0 {
				return nil, fmt.Errorf("chaos: bad trace offset %q", offStr)
			}
			p.Trace = &TraceFault{Mode: mode, Offset: off}
		default:
			return nil, fmt.Errorf("chaos: unknown fault %q", key)
		}
	}
	if p.Panic == nil && p.Stall == nil && p.Mem == nil && p.Signal == nil && p.Trace == nil {
		return nil, fmt.Errorf("chaos: spec %q names no fault", spec)
	}
	return p, nil
}

// String renders the plan for logs and manifests.
func (p *Plan) String() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	if p.Panic != nil {
		parts = append(parts, fmt.Sprintf("panic@cycle=%d:%s", p.Panic.Cycle, p.Panic.Box))
	}
	if p.Stall != nil {
		parts = append(parts, fmt.Sprintf("stall=%s:%d-%d", p.Stall.Box, p.Stall.From, p.Stall.To))
	}
	if p.Mem != nil {
		parts = append(parts, fmt.Sprintf("mem=%s:%g:%d", p.Mem.Mode, p.Mem.Rate, p.Mem.Delay))
	}
	if p.Signal != nil {
		parts = append(parts, fmt.Sprintf("signal=%s@%d", p.Signal.Name, p.Signal.Cycle))
	}
	if p.Trace != nil {
		parts = append(parts, fmt.Sprintf("trace=%s:%d", p.Trace.Mode, p.Trace.Offset))
	}
	return strings.Join(parts, ",")
}

// Injector applies a plan to a running simulation. It implements
// core.ClockGate (panic and stall faults) and mem.TxFault (memory
// faults); signal faults hook the cycle barrier via EndCycle. All three
// run in the simulator's clock loop.
type Injector struct {
	plan   *Plan
	binder *core.Binder
	rng    *rand.Rand

	injected int64 // total faults applied
}

// NewInjector builds an injector for the plan. binder is used to look
// up the signal-fault target at the barrier; pass nil when the plan
// has no signal fault.
func NewInjector(plan *Plan, binder *core.Binder) *Injector {
	return &Injector{
		plan:   plan,
		binder: binder,
		rng:    rand.New(rand.NewSource(plan.Seed)),
	}
}

// Injected returns how many faults have been applied so far.
func (in *Injector) Injected() int64 { return in.injected }

// BeforeClock implements core.ClockGate.
func (in *Injector) BeforeClock(cycle int64, box core.Box) bool {
	if p := in.plan.Panic; p != nil && cycle == p.Cycle && box.BoxName() == p.Box {
		in.injected++
		panic(&injectedPanic{cycle: cycle, box: p.Box})
	}
	if s := in.plan.Stall; s != nil && box.BoxName() == s.Box &&
		cycle >= s.From && (s.To == 0 || cycle <= s.To) {
		in.injected++
		return false
	}
	return true
}

// OnTransaction implements mem.TxFault.
func (in *Injector) OnTransaction(cycle int64, client string, addr uint32, write bool) mem.FaultAction {
	m := in.plan.Mem
	if m == nil {
		return mem.FaultAction{}
	}
	if in.rng.Float64() >= m.Rate {
		return mem.FaultAction{}
	}
	in.injected++
	switch m.Mode {
	case "drop":
		return mem.FaultAction{Drop: true}
	case "dup":
		return mem.FaultAction{Duplicate: true}
	default:
		return mem.FaultAction{ExtraLatency: m.Delay}
	}
}

// EndCycle applies the signal fault at its cycle barrier; register it
// with core.Simulator.OnEndCycle.
func (in *Injector) EndCycle(cycle int64) {
	s := in.plan.Signal
	if s == nil || cycle != s.Cycle || in.binder == nil {
		return
	}
	for _, sig := range in.binder.Signals() {
		if sig.Name() == s.Name {
			if sig.CorruptOne() {
				in.injected++
			}
			return
		}
	}
}

// CorruptReader wraps a trace stream per the plan's trace fault:
// "flip" XORs bit 0x20 of the byte at Offset, "trunc" ends the stream
// at Offset bytes. The wrapped reader intentionally does not implement
// io.Seeker, matching a pipe or a truncated download.
func (p *Plan) CorruptReader(r io.Reader) io.Reader {
	if p.Trace == nil {
		return r
	}
	return &corruptReader{r: r, fault: p.Trace}
}

type corruptReader struct {
	r     io.Reader
	fault *TraceFault
	off   int64
}

func (c *corruptReader) Read(b []byte) (int, error) {
	if c.fault.Mode == "trunc" {
		left := c.fault.Offset - c.off
		if left <= 0 {
			return 0, io.EOF
		}
		if int64(len(b)) > left {
			b = b[:left]
		}
	}
	n, err := c.r.Read(b)
	if c.fault.Mode == "flip" {
		idx := c.fault.Offset - c.off
		if idx >= 0 && idx < int64(n) {
			b[idx] ^= 0x20
		}
	}
	c.off += int64(n)
	return n, err
}
