package trace

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSampleRate parses the -trace-sample flag: "", "0", and "off"
// disable tracing (rate 0); "1/N" or a plain "N" keep 1 in N spans;
// "1" keeps every span.
func ParseSampleRate(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	switch s {
	case "", "0", "off":
		return 0, nil
	}
	if rest, ok := strings.CutPrefix(s, "1/"); ok {
		s = rest
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("trace: bad sample rate %q (want off, 1/N, or N)", s)
	}
	return n, nil
}

// Kind classifies what a span followed through the machine.
type Kind uint8

// Span kinds.
const (
	KindRead   Kind = iota // memory read transaction
	KindWrite              // memory write transaction
	KindVertex             // shader vertex-group work item
	KindFrag               // shader fragment-quad work item
)

var kindNames = [...]string{"read", "write", "vertex", "fragment"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Span is one request's lifecycle record. It is pooled by its issuing
// Tracer and rides the traced object itself (mem.Request/Reply,
// gpu.ShaderWork), so whoever holds the object owns its span. Hops are
// stamped as plain field writes:
//
//	Issue    the client issued the request / the work item arrived
//	Enqueue  accepted into the service queue (MC per-client queue,
//	         FFIFO thread window)
//	Sched    dequeued for service (MC channel grant, shader dispatch)
//	Complete service finished (MC reply built, shader thread done)
//	Retire   the client consumed the result
//
// Wait (Sched-Issue) vs Service (Complete-Sched) is the breakdown the
// histograms aggregate; Total is Retire-Issue.
type Span struct {
	Client string `json:"client"`
	Kind   Kind   `json:"-"`
	KindS  string `json:"kind"`
	Seq    uint64 `json:"seq"` // per-client issue sequence number
	Addr   uint32 `json:"addr,omitempty"`

	Issue    int64 `json:"issue"`
	Enqueue  int64 `json:"enqueue"`
	Sched    int64 `json:"sched"`
	Complete int64 `json:"complete"`
	Retire   int64 `json:"retire"`

	owner *Tracer
}

// Wait returns the cycles between issue and the start of service.
func (s *Span) Wait() int64 { return s.Sched - s.Issue }

// Service returns the cycles the request was actively served.
func (s *Span) Service() int64 { return s.Complete - s.Sched }

// Total returns the full issue-to-retire latency.
func (s *Span) Total() int64 { return s.Retire - s.Issue }

// Finish stamps the retire hop and hands the span back to its issuing
// tracer for aggregation and reuse. Must be called by the goroutine
// that owns the traced object (the issuing client's Clock).
func (s *Span) Finish(cycle int64) {
	s.Retire = cycle
	s.owner.finish(s)
}

// splitmix64 is the deterministic sampling hash: a fixed, well-mixed
// 64-bit permutation (Vigna's SplitMix64 finalizer). The hash input is
// the per-client issue sequence number, not the object ID, so which of
// a client's requests are sampled does not depend on what every other
// box drew from the shared ID source.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashName folds a client name into a 64-bit seed contribution
// (FNV-1a).
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// sampled decides whether issue number seq of the client identified
// by nameHash is traced under the given seed and 1-in-rate sampling.
func sampled(seed, nameHash, seq, rate uint64) bool {
	if rate == 0 {
		return false
	}
	if rate == 1 {
		return true
	}
	return splitmix64(seed^nameHash^splitmix64(seq))%rate == 0
}
