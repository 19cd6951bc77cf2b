// Package trace is the request-lifecycle tracing layer: pooled span
// records ride memory transactions and shader work items through the
// machine, stamped at each hop, and a deterministic seed-derived
// sampler selects which requests carry one — the same requests in
// every run, so every exported artifact stays bit-identical.
//
// The package is deliberately tiny and dependency-light (core, chkpt)
// so the instrumented packages (internal/mem, internal/gpu) can import
// it without cycles.
package trace

import (
	"fmt"
	"math/bits"

	"attila/internal/chkpt"
)

// NumBuckets is the fixed bucket count of every Histogram: bucket i
// holds values v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i-1],
// with bucket 0 holding v <= 0 and the last bucket absorbing
// everything >= 2^(NumBuckets-2). 40 buckets cover ~5.5e11 cycles,
// far beyond any run length.
const NumBuckets = 40

// Histogram is a fixed-shape log2-bucket latency histogram. The shape
// is identical for every instance, which makes histograms mergeable by
// plain bucket addition — across windows, across checkpoints, and
// across a job server's jobs. All fields are exported so the type
// round-trips through JSON unchanged.
type Histogram struct {
	N       uint64             `json:"count"`
	Sum     uint64             `json:"sum"` // sum of observed values (mean = Sum/N)
	Buckets [NumBuckets]uint64 `json:"buckets"`
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket i
// (2^i - 1); the last bucket is unbounded.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= NumBuckets-1 {
		return int64(1)<<62 - 1 // effectively +Inf
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.N++
	if v > 0 {
		h.Sum += uint64(v)
	}
	h.Buckets[bucketOf(v)]++
}

// Merge adds o's counts into h. Merging is exact because every
// histogram shares the same fixed buckets.
func (h *Histogram) Merge(o *Histogram) {
	h.N += o.N
	h.Sum += o.Sum
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Sub subtracts prev (an earlier snapshot of the same histogram) from
// h, returning the delta — the windowed histogram between the two
// snapshots.
func (h Histogram) Sub(prev Histogram) Histogram {
	d := Histogram{N: h.N - prev.N, Sum: h.Sum - prev.Sum}
	for i := range h.Buckets {
		d.Buckets[i] = h.Buckets[i] - prev.Buckets[i]
	}
	return d
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (0 < q <= 1) — an upper estimate with log2 resolution,
// deterministic and merge-stable. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h.N == 0 {
		return 0
	}
	rank := uint64(q * float64(h.N))
	if rank < 1 {
		rank = 1
	}
	if rank > h.N {
		rank = h.N
	}
	var cum uint64
	for i := range h.Buckets {
		cum += h.Buckets[i]
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// Mean returns the exact arithmetic mean of the observed values.
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// encode serializes the histogram into a checkpoint section.
func (h *Histogram) encode(e *chkpt.Encoder) {
	e.U64(h.N)
	e.U64(h.Sum)
	for _, b := range h.Buckets {
		e.U64(b)
	}
}

// decode restores the histogram from a checkpoint section and
// cross-checks the bucket sum against the observation count.
func (h *Histogram) decode(d *chkpt.Decoder) error {
	h.N = d.U64()
	h.Sum = d.U64()
	var total uint64
	for i := range h.Buckets {
		h.Buckets[i] = d.U64()
		total += h.Buckets[i]
	}
	if err := d.Err(); err != nil {
		return err
	}
	if total != h.N {
		return fmt.Errorf("%w: histogram bucket sum %d != count %d", chkpt.ErrCorrupt, total, h.N)
	}
	return nil
}
