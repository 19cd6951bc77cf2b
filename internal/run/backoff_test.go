package run

import (
	"math/rand"
	"testing"
	"time"
)

// The doubling backoff must stay under the cap at every attempt, never
// collapse to zero once a base is set, and carry jitter (not the bare
// doubled value) so a sweep of failing runs does not retry in
// lockstep.
func TestRetryDelayCapAndJitter(t *testing.T) {
	base, max := 100*time.Millisecond, 2*time.Second
	rng := rand.New(rand.NewSource(7))
	for attempt := 1; attempt <= 20; attempt++ {
		d := RetryDelay(base, max, attempt, rng)
		if d <= 0 {
			t.Fatalf("attempt %d: delay %v, want > 0", attempt, d)
		}
		if d > max {
			t.Fatalf("attempt %d: delay %v exceeds cap %v", attempt, d, max)
		}
	}
	// Deep attempts must land in the jittered band [max/2, max], not
	// at the uncapped doubled value.
	d := RetryDelay(base, max, 30, rand.New(rand.NewSource(7)))
	if d < max/2 || d > max {
		t.Fatalf("capped delay %v outside [%v, %v]", d, max/2, max)
	}
}

// The same seed must produce the same schedule (chaos determinism) and
// different seeds must not always agree.
func TestRetryDelayDeterministic(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		var out []time.Duration
		for a := 1; a <= 8; a++ {
			out = append(out, RetryDelay(50*time.Millisecond, time.Second, a, rng))
		}
		return out
	}
	a, b := seq(3), seq(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: %v vs %v with the same seed", i+1, a[i], b[i])
		}
	}
	c := seq(4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced an identical schedule")
	}
}

// Zero base means retry immediately; a nil rng skips jitter but still
// caps.
func TestRetryDelayEdges(t *testing.T) {
	if d := RetryDelay(0, time.Second, 3, nil); d != 0 {
		t.Fatalf("zero base: %v, want 0", d)
	}
	if d := RetryDelay(100*time.Millisecond, 0, 12, nil); d != DefaultRetryBackoffMax {
		t.Fatalf("default cap: %v, want %v", d, DefaultRetryBackoffMax)
	}
	if d := RetryDelay(100*time.Millisecond, time.Second, 2, nil); d != 200*time.Millisecond {
		t.Fatalf("nil rng: %v, want exact doubling", d)
	}
}
