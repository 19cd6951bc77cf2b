package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"attila/internal/chkpt"
)

func TestParseSampleRate(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		err  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"off", 0, false},
		{"1", 1, false},
		{"1/64", 64, false},
		{"64", 64, false},
		{" 1/8 ", 8, false},
		{"abc", 0, true},
		{"1/0", 0, true},
		{"-4", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSampleRate(c.in)
		if c.err != (err != nil) || got != c.want {
			t.Errorf("ParseSampleRate(%q) = %d, %v; want %d, err=%v", c.in, got, err, c.want, c.err)
		}
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// Bucket i holds values with bit length i; upper bound 2^i-1.
	for _, v := range []int64{0, -5, 1, 1, 2, 3, 4, 7, 8, 100, 1 << 40} {
		h.Observe(v)
	}
	if h.N != 11 {
		t.Fatalf("N = %d, want 11", h.N)
	}
	if h.Buckets[0] != 2 { // 0 and -5
		t.Errorf("bucket 0 = %d, want 2", h.Buckets[0])
	}
	if h.Buckets[1] != 2 || h.Buckets[2] != 2 || h.Buckets[3] != 2 {
		t.Errorf("low buckets = %d,%d,%d, want 2,2,2", h.Buckets[1], h.Buckets[2], h.Buckets[3])
	}
	// Quantiles are bucket upper bounds: the p50 rank over 11 samples
	// lands in bucket 2 (values 2,3) -> upper bound 3.
	if q := h.Quantile(0.50); q != 3 {
		t.Errorf("p50 = %d, want 3", q)
	}
	if q := h.Quantile(1.0); q != BucketUpper(NumBuckets-1) {
		t.Errorf("p100 = %d, want overflow bucket upper %d", q, BucketUpper(NumBuckets-1))
	}
	if q := h.Quantile(0.0); q != 0 {
		t.Errorf("p0 = %d, want 0 (first sample is in bucket 0)", q)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram quantile/mean should be 0")
	}
}

func TestHistogramMergeAndSub(t *testing.T) {
	var a, b Histogram
	for v := int64(1); v <= 100; v++ {
		a.Observe(v)
	}
	for v := int64(1); v <= 50; v++ {
		b.Observe(v * 1000)
	}
	m := a // copy
	m.Merge(&b)
	if m.N != 150 || m.Sum != a.Sum+b.Sum {
		t.Fatalf("merge: N=%d Sum=%d, want 150 / %d", m.N, m.Sum, a.Sum+b.Sum)
	}
	d := m.Sub(a)
	if d.N != b.N || d.Sum != b.Sum || d != b {
		t.Errorf("sub: delta %+v does not recover b %+v", d, b)
	}
}

func TestSamplerDeterministicAndRoughlyUniform(t *testing.T) {
	const seed, rate = 7, 16
	hash := hashName("MC0")
	picked := 0
	for seq := uint64(0); seq < 100_000; seq++ {
		a := sampled(seed, hash, seq, rate)
		if a != sampled(seed, hash, seq, rate) {
			t.Fatal("sampling is not a pure function")
		}
		if a {
			picked++
		}
	}
	want := 100_000 / rate
	if picked < want*7/10 || picked > want*13/10 {
		t.Errorf("picked %d of 100000 at 1/%d, want about %d", picked, rate, want)
	}
	if sampled(seed, hash, 1, 0) {
		t.Error("rate 0 must never sample")
	}
	if !sampled(seed, hash, 1, 1) {
		t.Error("rate 1 must always sample")
	}
	// Different seed or client selects a different (but deterministic)
	// subset.
	diff := 0
	for seq := uint64(0); seq < 10_000; seq++ {
		if sampled(seed, hash, seq, rate) != sampled(seed+1, hash, seq, rate) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("changing the seed never changed a sampling decision")
	}
}

// buildCollector issues and retires a deterministic set of spans on
// two clients.
func buildCollector(opts Options, spans int) *Collector {
	c := NewCollector(opts)
	mc := c.Client("MC0")
	tex := c.Client("TexCache0")
	cycle := int64(0)
	for i := 0; i < spans; i++ {
		cycle += 3
		if sp := mc.Start(KindRead, cycle, uint32(i*64)); sp != nil {
			sp.Enqueue = cycle + 1
			sp.Sched = cycle + 2
			sp.Complete = cycle + 2 + int64(i%7)
			sp.Finish(cycle + 4 + int64(i%7))
		}
		if sp := tex.Start(KindWrite, cycle, uint32(i*32)); sp != nil {
			sp.Sched = cycle + 1
			sp.Complete = cycle + 5
			sp.Finish(cycle + 6)
		}
		c.EndCycle(cycle)
	}
	return c
}

func TestCollectorFoldRingAndSummary(t *testing.T) {
	// Each of the two clients retires n spans, so the ring wraps.
	n := SpanDepth/2 + 4
	c := buildCollector(Options{SampleRate: 1, Seed: 1}, n)
	sum := c.Snapshot()
	if sum.Spans != uint64(2*n) {
		t.Fatalf("total spans = %d, want %d", sum.Spans, 2*n)
	}
	if len(sum.Clients) != 2 || sum.Clients[0].Name != "MC0" || sum.Clients[1].Name != "TexCache0" {
		t.Fatalf("clients = %+v, want MC0 then TexCache0 (registration order)", sum.Clients)
	}
	if sum.Clients[1].Total.P50 != 7 { // tex total latency is always 6 -> bucket upper 7
		t.Errorf("tex p50 = %d, want 7", sum.Clients[1].Total.P50)
	}
	spans := c.Spans()
	if len(spans) != SpanDepth {
		t.Fatalf("ring kept %d spans, want SpanDepth=%d", len(spans), SpanDepth)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Retire < spans[i-1].Retire-8 { // same-cycle pairs interleave
			t.Fatalf("ring not oldest-first: %d after %d", spans[i].Retire, spans[i-1].Retire)
		}
	}
	if spans[0].KindS == "" {
		t.Error("retained spans must carry the serialized kind")
	}
	// Span reuse: the free lists should hold the retired records.
	var buf bytes.Buffer
	if err := c.WriteSpansNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(buf.Bytes(), []byte("\n")); got != SpanDepth {
		t.Errorf("NDJSON lines = %d, want %d", got, SpanDepth)
	}
	hists := c.TotalHists(nil)
	if len(hists) != 2 || hists["MC0"].N != uint64(n) {
		t.Errorf("TotalHists = %v, want 2 clients with %d spans each", hists, n)
	}
}

func TestCollectorFlightRecorder(t *testing.T) {
	c := buildCollector(Options{SampleRate: 1, Seed: 1}, 5)
	c.Note(1000, "restore landed")
	ev := c.Recent(6)
	if len(ev) != 6 {
		t.Fatalf("Recent(6) returned %d events", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Cycle < ev[i-1].Cycle {
			t.Fatal("flight events not in cycle order")
		}
	}
	foundNote := false
	for _, e := range ev {
		if e.Kind == "note" && strings.Contains(e.What, "restore") {
			foundNote = true
		}
	}
	if !foundNote {
		t.Error("note missing from flight recorder window")
	}

	// The recorder keeps the newest FlightDepth notes.
	for i := 0; i < FlightDepth; i++ {
		c.Note(2000+int64(i), "filler")
	}
	notes := 0
	for _, e := range c.Recent(SpanDepth + 2*FlightDepth) {
		if e.Kind == "note" {
			notes++
			if strings.Contains(e.What, "restore") {
				t.Error("the oldest note outlived FlightDepth newer ones")
			}
		}
	}
	if notes != FlightDepth {
		t.Errorf("flight recorder kept %d notes, want FlightDepth=%d", notes, FlightDepth)
	}
}

func TestCollectorCheckpointRoundTrip(t *testing.T) {
	opts := Options{SampleRate: 2, Seed: 9}
	a := buildCollector(opts, SpanDepth+SpanDepth/2) // about 1.5 SpanDepth sampled
	if len(a.Spans()) != SpanDepth {
		t.Fatalf("ring kept %d spans, want a wrapped ring of %d", len(a.Spans()), SpanDepth)
	}
	snap := chkpt.Capture(chkpt.Meta{Cycle: 90}, []chkpt.Snapshotter{a})

	b := NewCollector(opts)
	b.Client("MC0")
	b.Client("TexCache0")
	if err := chkpt.Restore(snap, []chkpt.Snapshotter{b}); err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a.Snapshot())
	bj, _ := json.Marshal(b.Snapshot())
	if !bytes.Equal(aj, bj) {
		t.Fatalf("restored summary differs:\n%s\n%s", aj, bj)
	}
	var abuf, bbuf bytes.Buffer
	a.WriteSpansNDJSON(&abuf)
	b.WriteSpansNDJSON(&bbuf)
	if !bytes.Equal(abuf.Bytes(), bbuf.Bytes()) {
		t.Fatal("restored span ring differs")
	}
	// The issue counters must round-trip: sampling depends on them.
	for i := range a.clients {
		if a.clients[i].seq != b.clients[i].seq {
			t.Fatalf("client %s seq %d != %d", a.clients[i].name, b.clients[i].seq, a.clients[i].seq)
		}
	}

	// A differently-configured collector must refuse the snapshot.
	c := NewCollector(Options{SampleRate: 4, Seed: 9})
	c.Client("MC0")
	c.Client("TexCache0")
	if err := chkpt.Restore(snap, []chkpt.Snapshotter{c}); !errors.Is(err, chkpt.ErrMismatch) {
		t.Fatalf("restore with different rate: %v, want ErrMismatch", err)
	}
}

func TestTracerUnsampledIsFree(t *testing.T) {
	c := NewCollector(Options{SampleRate: 0, Seed: 1})
	tr := c.Client("MC0")
	if sp := tr.Start(KindRead, 1, 0); sp != nil {
		t.Fatal("rate 0 must not produce spans")
	}
	if tr.seq != 1 {
		t.Fatal("the issue counter must advance even when unsampled")
	}
}
