package main

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The reference sandbox is a VM on a shared host whose speed drifts by
// ±12 % over minutes, and which the hypervisor throttles outright for
// minutes under sustained load (reps 1.4-5x slower, steal time up to
// 100 %). A run sits entirely inside one such phase, so no statistic
// over its reps removes it: two suite runs of the same code, minutes
// apart, differed by 43 % in raw wall_s. Host times are therefore
// reported in *calibrated* seconds. Two corrections are applied, to the
// reps and to the calibrations alike:
//
//  1. time the hypervisor kept the virtual CPUs off a core while they
//     had work — the steal counter of /proc/stat — is subtracted;
//  2. what is left is scaled by how fast a fixed reference computation,
//     the calibrator below, which shares no code with the simulator,
//     ran immediately before and after the rep.
//
// Measured on the sandbox: in a quiet phase calibration costs precision
// (run-to-run spread of a fixed scene 3 % raw, 5-6 % calibrated: a short
// calibration is itself noisier than a 3 s rep); in a drifting phase it
// pays (14.5 % -> 5.3 %); in a throttled one it is the difference
// between a usable number and none (138 % -> 20 %, and the medians of
// the two halves of that series 168 % apart raw, 2.6 % calibrated). The
// bounds of the host-time metrics are sized for the worst of these. The
// calibrator is part of the benchmark's definition: changing it changes
// every host-time metric.

// stolenSeconds reads the steal time accumulated since boot over all
// CPUs; 0 where the host does not report it.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ is 100 on every Linux the Go runtime supports
}

// running returns the part of wall seconds during which threads busy
// goroutines could run: the steal over the interval is shared out among
// them, and at most nine tenths are taken off (the counter also charges
// what unrelated threads lost).
func running(wallS, stolenS float64, threads int) float64 {
	if off := stolenS / float64(threads); off < 0.9*wallS {
		return wallS - off
	}
	return 0.1 * wallS
}

// calNominalS is how long one calibration takes on the reference
// sandbox in its usual state; a host on which it takes exactly this
// long reports calibrated seconds equal to running seconds.
const calNominalS = 0.50

// The calibration is the sum of three kernels chosen to stall the way a
// clock loop does rather than to run at peak issue rate — measured on
// the sandbox, kernels limited by dependent loads and by branch misses
// slowed in step with the simulator (log-log slope ~0.9), a pure ALU
// loop slowed more than it did (slope ~0.7) and over-corrected:
//
//   - dispatch: units clocked through an interface, each looking a word
//     up in its own 64 KiB table and now and then rewriting a queue;
//   - chase:    a dependent walk through a 256 KiB permutation;
//   - branch:   data-dependent branches over 1 MiB of noise.
const (
	calUnits       = 24
	calTable       = 1 << 14
	calDispatchN   = 2_800_000
	calChaseLen    = 1 << 16
	calChaseN      = 33_000_000
	calBranchBytes = 1 << 20
	calBranchPass  = 27
)

type calUnit struct {
	table []uint32
	acc   uint32
	queue []int64
}

type clocked interface{ clock(c int64) }

func (u *calUnit) clock(c int64) {
	i := uint32(c)*2654435761 + u.acc
	u.acc += u.table[i&(calTable-1)]
	if u.acc&7 == 0 {
		u.queue = append(u.queue[:0], c)
	}
}

// calData is one goroutine's private inputs.
type calData struct {
	units []clocked
	perm  []int32
	noise []byte
	sink  int
}

func newCalData() *calData {
	d := &calData{units: make([]clocked, calUnits), perm: make([]int32, calChaseLen), noise: make([]byte, calBranchBytes)}
	for i := range d.units {
		u := &calUnit{table: make([]uint32, calTable)}
		for j := range u.table {
			u.table[j] = uint32(j*7 + i)
		}
		d.units[i] = u
	}
	// One cycle through every slot, in a fixed pseudo-random order.
	rng := newRand(1)
	order := make([]int32, calChaseLen)
	for i := range order {
		order[i] = int32(i)
	}
	for i := len(order) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for i, at := range order {
		d.perm[at] = order[(i+1)%len(order)]
	}
	for i := range d.noise {
		d.noise[i] = byte(rng.next())
	}
	return d
}

// run does 1/scale of the full reference computation.
func (d *calData) run(scale int) {
	for c := int64(0); c < calDispatchN/int64(scale); c++ {
		for _, u := range d.units {
			u.clock(c)
		}
	}
	at, sum := int32(0), 0
	for n := 0; n < calChaseN/scale; n++ {
		at = d.perm[at]
		sum += int(at)
	}
	for p := 0; p < calBranchPass; p++ {
		for _, b := range d.noise[:calBranchBytes/scale] {
			switch {
			case b&1 == 0:
				sum += int(b)
			case b&2 == 0:
				sum -= 3
			default:
				sum ^= int(b)
			}
		}
	}
	d.sink += sum
}

// calibrator runs the reference computation on as many goroutines as
// the workload under test keeps busy, so contention between sibling
// CPUs shows in it the way it shows in the workload.
type calibrator struct {
	data    []*calData
	scale   int
	samples []float64
}

func newCalibrator(e *env, threads int) *calibrator {
	c := &calibrator{scale: 1}
	if e.smoke {
		c.scale = 100
	}
	for t := 0; t < threads; t++ {
		c.data = append(c.data, newCalData())
	}
	return c
}

// sample runs one calibration and returns how long it ran for, in
// seconds net of steal.
func (c *calibrator) sample() float64 {
	var wg sync.WaitGroup
	stolen := stolenSeconds()
	t0 := time.Now()
	for _, d := range c.data {
		wg.Add(1)
		go func(d *calData) {
			defer wg.Done()
			d.run(c.scale)
		}(d)
	}
	wg.Wait()
	s := running(time.Since(t0).Seconds(), stolenSeconds()-stolen, len(c.data))
	c.samples = append(c.samples, s)
	return s
}

// factor converts running seconds measured between two calibrations
// into calibrated seconds.
func (c *calibrator) factor(before, after float64) float64 {
	return calNominalS / float64(c.scale) / ((before + after) / 2)
}
