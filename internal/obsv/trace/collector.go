package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"attila/internal/chkpt"
	"attila/internal/core"
)

// Options configures a Collector.
type Options struct {
	// SampleRate traces 1 in SampleRate requests per client. 0 disables
	// tracing entirely (Tracer.Start always returns nil); 1 traces
	// everything.
	SampleRate uint64
	// Seed perturbs which requests are selected. The selection is a
	// pure function of (Seed, client name, per-client issue number), so
	// every run of the same workload traces the same requests.
	Seed uint64
	// SpanDepth bounds the ring of retained terminated spans (the
	// -spans dump, jobd's <job>-spans.ndjson, and the flight recorder
	// source). <= 0 selects 4096.
	SpanDepth int
	// FlightDepth bounds how many recent span terminations and notes
	// the crash black box embeds. <= 0 selects 64.
	FlightDepth int
}

// Tracer is one client's tracing handle: it owns the client's span
// free list, issue counter and terminated-span buffer. All methods
// are called from the goroutine clocking the client's box; the
// Collector drains the buffer at the end of a cycle a span terminated
// in, which the barrier's happens-before makes race-free.
type Tracer struct {
	col  *Collector
	name string
	hash uint64
	seq  uint64
	free []*Span
	done []*Span
}

// Start begins a span for the client's next issue, or returns nil
// when this issue is not sampled (the caller then stamps nothing —
// one predictable branch per hop). cycle stamps the issue hop.
func (t *Tracer) Start(kind Kind, cycle int64, addr uint32) *Span {
	seq := t.seq
	t.seq++
	if !sampled(t.col.opts.Seed, t.hash, seq, t.col.opts.SampleRate) {
		return nil
	}
	var sp *Span
	if n := len(t.free); n > 0 {
		sp = t.free[n-1]
		t.free = t.free[:n-1]
		*sp = Span{}
	} else {
		sp = &Span{}
	}
	sp.Client = t.name
	sp.Kind = kind
	sp.Seq = seq
	sp.Addr = addr
	sp.Issue = cycle
	sp.owner = t
	return sp
}

// finish queues a terminated span for the fold at the end of the cycle.
func (t *Tracer) finish(sp *Span) {
	t.done = append(t.done, sp)
	if pub := t.col.pub; pub != nil {
		pub.Mark()
	}
}

// clientStats is one client's aggregated latency breakdown.
type clientStats struct {
	name    string
	count   uint64
	total   Histogram
	wait    Histogram
	service Histogram
}

// note is a structured flight-recorder event outside the span stream
// (run phase changes, restores).
type note struct {
	cycle int64
	what  string
}

// Collector aggregates terminated spans from every registered client
// at the cycle barrier, in registration order — so histograms, span
// dumps and everything derived from them are identical from run to
// run. Attach it to the simulator, and its Recent to
// Simulator.SetFlightRecorder for the crash black box.
type Collector struct {
	opts    Options
	clients []*Tracer
	index   map[string]*Tracer
	pub     *core.Publication // marked when a span terminates; nil until Attach

	mu    sync.Mutex
	stats []*clientStats
	ring  []Span // terminated spans, oldest first once wrapped
	head  int    // ring insertion point
	total uint64 // all terminated sampled spans ever
	notes []note // bounded to FlightDepth
}

// NewCollector builds a collector. Register clients with Client
// before the run starts.
func NewCollector(opts Options) *Collector {
	if opts.SpanDepth <= 0 {
		opts.SpanDepth = 4096
	}
	if opts.FlightDepth <= 0 {
		opts.FlightDepth = 64
	}
	return &Collector{opts: opts, index: make(map[string]*Tracer)}
}

// Options returns the collector's resolved configuration.
func (c *Collector) Options() Options { return c.opts }

// Client registers (or returns) the tracing handle for a client name.
// Registration order is the fold order; register during pipeline
// construction, before the run.
func (c *Collector) Client(name string) *Tracer {
	if t, ok := c.index[name]; ok {
		return t
	}
	t := &Tracer{col: c, name: name, hash: hashName(name)}
	c.clients = append(c.clients, t)
	c.index[name] = t
	c.stats = append(c.stats, &clientStats{name: name})
	return t
}

// Attach makes the collector's fold a publication of sim: a cycle on
// which a span terminated ends with EndCycle, and no other cycle pays
// for it. Publications fold before every end-of-cycle hook, so the
// metrics bus and the checkpoint engine see the cycle's terminations
// whenever they were attached.
func (c *Collector) Attach(sim *core.Simulator) { c.pub = sim.Publish("", c.EndCycle) }

// EndCycle is the barrier fold: it drains every client's terminated
// spans — in registration order — into the histograms and the span
// ring, then recycles the span records. An attached collector runs it
// at the end of each cycle a span terminated in; a harness without a
// simulator calls it itself.
func (c *Collector) EndCycle(cycle int64) {
	c.mu.Lock()
	for i, t := range c.clients {
		if len(t.done) == 0 {
			continue
		}
		st := c.stats[i]
		for _, sp := range t.done {
			st.count++
			st.total.Observe(sp.Total())
			st.wait.Observe(sp.Wait())
			st.service.Observe(sp.Service())
			c.total++
			c.push(sp)
			t.free = append(t.free, sp)
		}
		t.done = t.done[:0]
	}
	c.mu.Unlock()
}

// push copies a terminated span into the bounded ring.
func (c *Collector) push(sp *Span) {
	v := *sp
	v.owner = nil
	v.KindS = v.Kind.String()
	if len(c.ring) < c.opts.SpanDepth {
		c.ring = append(c.ring, v)
		return
	}
	c.ring[c.head] = v
	c.head++
	if c.head == len(c.ring) {
		c.head = 0
	}
}

// Note appends a structured event to the flight recorder (bounded;
// the oldest note is dropped). Safe from an end-of-cycle hook or
// before/after the run.
func (c *Collector) Note(cycle int64, what string) {
	c.mu.Lock()
	c.notes = append(c.notes, note{cycle: cycle, what: what})
	if len(c.notes) > c.opts.FlightDepth {
		c.notes = c.notes[len(c.notes)-c.opts.FlightDepth:]
	}
	c.mu.Unlock()
}

// Spans returns the retained terminated spans, oldest first. The
// returned slice is a copy.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.orderedLocked()
}

func (c *Collector) orderedLocked() []Span {
	out := make([]Span, 0, len(c.ring))
	if len(c.ring) == c.opts.SpanDepth && c.head > 0 {
		out = append(out, c.ring[c.head:]...)
		out = append(out, c.ring[:c.head]...)
		return out
	}
	return append(out, c.ring...)
}

// WriteSpansNDJSON writes the retained spans as one JSON object per
// line, oldest first. Byte-identical from run to run.
func (c *Collector) WriteSpansNDJSON(w io.Writer) error {
	spans := c.Spans()
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// HistSummary is the JSON rendering of one histogram: the mergeable
// raw histogram plus derived percentiles for humans.
type HistSummary struct {
	Hist Histogram `json:"hist"`
	P50  int64     `json:"p50"`
	P90  int64     `json:"p90"`
	P99  int64     `json:"p99"`
	Mean float64   `json:"mean"`
}

func summarize(h Histogram) HistSummary {
	return HistSummary{Hist: h, P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99), Mean: h.Mean()}
}

// ClientSummary is one client's cumulative latency breakdown.
type ClientSummary struct {
	Name    string      `json:"name"`
	Count   uint64      `json:"count"`
	Total   HistSummary `json:"total"`
	Wait    HistSummary `json:"wait"`
	Service HistSummary `json:"service"`
}

// Summary is the collector's cumulative state: sampling config plus
// per-client histograms, the unit a job server merges across its jobs.
type Summary struct {
	SampleRate uint64          `json:"sampleRate"`
	Seed       uint64          `json:"seed"`
	Spans      uint64          `json:"spans"` // terminated sampled spans
	Clients    []ClientSummary `json:"clients,omitempty"`
}

// Snapshot returns the cumulative summary. Safe from any goroutine
// (the fold holds the same mutex briefly at each barrier).
func (c *Collector) Snapshot() *Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &Summary{SampleRate: c.opts.SampleRate, Seed: c.opts.Seed, Spans: c.total}
	for _, st := range c.stats {
		if st.count == 0 {
			continue
		}
		s.Clients = append(s.Clients, ClientSummary{
			Name:    st.name,
			Count:   st.count,
			Total:   summarize(st.total),
			Wait:    summarize(st.wait),
			Service: summarize(st.service),
		})
	}
	return s
}

// TotalHists copies every client's cumulative total-latency histogram
// into dst (keyed by client name), allocating it when nil. The
// metrics bus diffs successive copies for windowed percentiles.
func (c *Collector) TotalHists(dst map[string]Histogram) map[string]Histogram {
	if dst == nil {
		dst = make(map[string]Histogram)
	}
	c.mu.Lock()
	for _, st := range c.stats {
		if st.count > 0 {
			dst[st.name] = st.total
		}
	}
	c.mu.Unlock()
	return dst
}

// Recent implements the core flight-recorder hook: the last max span
// terminations and notes, oldest first, for the crash black box.
func (c *Collector) Recent(max int) []core.FlightEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	spans := c.orderedLocked()
	if len(spans) > max {
		spans = spans[len(spans)-max:]
	}
	out := make([]core.FlightEvent, 0, len(spans)+len(c.notes))
	for i := range spans {
		sp := &spans[i]
		out = append(out, core.FlightEvent{
			Cycle: sp.Retire,
			Kind:  "span",
			What: fmt.Sprintf("%s %s #%d addr=%#x wait=%d service=%d total=%d",
				sp.Client, sp.Kind, sp.Seq, sp.Addr, sp.Wait(), sp.Service(), sp.Total()),
		})
	}
	for _, n := range c.notes {
		out = append(out, core.FlightEvent{Cycle: n.cycle, Kind: "note", What: n.what})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cycle < out[j].Cycle })
	if len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// ---- Checkpoint support ----

// SnapshotName implements chkpt.Snapshotter.
func (c *Collector) SnapshotName() string { return "obsv.Spans" }

// SnapshotState implements chkpt.Snapshotter: the sampling config (a
// restore into a differently-sampled run would silently diverge), the
// per-client issue counters — the sampling decision depends on them —
// and the aggregated state. Checkpoints are only captured at quiesced
// barriers, so there are never in-flight spans to serialize.
func (c *Collector) SnapshotState(e *chkpt.Encoder) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.U64(c.opts.SampleRate)
	e.U64(c.opts.Seed)
	e.U64(c.total)
	e.U32(uint32(len(c.clients)))
	for i, t := range c.clients {
		st := c.stats[i]
		e.Str(t.name)
		e.U64(t.seq)
		e.U64(st.count)
		st.total.encode(e)
		st.wait.encode(e)
		st.service.encode(e)
	}
	spans := c.orderedLocked()
	blob, err := json.Marshal(spans)
	if err != nil {
		blob = []byte("[]")
	}
	e.Blob(blob)
}

// RestoreState implements chkpt.Snapshotter. The collector must have
// the same clients and sampling config as the snapshotted one.
func (c *Collector) RestoreState(d *chkpt.Decoder) error {
	rate := d.U64()
	seed := d.U64()
	total := d.U64()
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if rate != c.opts.SampleRate || seed != c.opts.Seed {
		return fmt.Errorf("%w: snapshot sampled 1/%d seed %d, collector 1/%d seed %d",
			chkpt.ErrMismatch, rate, seed, c.opts.SampleRate, c.opts.Seed)
	}
	if n != len(c.clients) {
		return fmt.Errorf("%w: snapshot has %d trace clients, collector has %d", chkpt.ErrMismatch, n, len(c.clients))
	}
	seqs := make([]uint64, n)
	counts := make([]uint64, n)
	hists := make([][3]Histogram, n)
	for i := 0; i < n; i++ {
		name := d.Str()
		seqs[i] = d.U64()
		counts[i] = d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		if name != c.clients[i].name {
			return fmt.Errorf("%w: trace client %d is %q in snapshot, %q in collector", chkpt.ErrMismatch, i, name, c.clients[i].name)
		}
		for j := 0; j < 3; j++ {
			if err := hists[i][j].decode(d); err != nil {
				return err
			}
		}
	}
	blob := d.Blob()
	if err := d.Err(); err != nil {
		return err
	}
	var spans []Span
	if err := json.Unmarshal(blob, &spans); err != nil {
		return fmt.Errorf("%w: span ring: %v", chkpt.ErrCorrupt, err)
	}
	if len(spans) > c.opts.SpanDepth {
		spans = spans[len(spans)-c.opts.SpanDepth:]
	}
	for i := range spans {
		// KindS is the serialized form; re-derive the enum.
		for k, name := range kindNames {
			if name == spans[i].KindS {
				spans[i].Kind = Kind(k)
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total = total
	for i, t := range c.clients {
		t.seq = seqs[i]
		t.done = t.done[:0]
		st := c.stats[i]
		st.count = counts[i]
		st.total, st.wait, st.service = hists[i][0], hists[i][1], hists[i][2]
	}
	c.ring = spans
	c.head = 0
	return nil
}
