package run

import (
	"math/rand"
	"time"
)

// DefaultRetryBackoffMax caps the doubling retry backoff when the
// caller does not choose a cap. Without one, a sweep of runs that all
// hit the same transient fault doubles its way into multi-minute
// sleeps; with pure doubling and no jitter, every run also retries at
// the same instant and thundering-herds the checkpoint disk.
const DefaultRetryBackoffMax = 5 * time.Second

// RetryDelay returns the wait before retry number attempt (1-based):
// base doubled per prior attempt, capped at max (DefaultRetryBackoffMax
// when max <= 0), with "equal jitter" — half the capped delay fixed,
// half drawn from rng — so concurrent retries spread out. Pass a
// seeded rng for deterministic schedules (chaos runs seed it from the
// fault plan); a nil rng skips jitter entirely.
func RetryDelay(base, max time.Duration, attempt int, rng *rand.Rand) time.Duration {
	if base <= 0 {
		return 0
	}
	if max <= 0 {
		max = DefaultRetryBackoffMax
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if rng != nil && d > 1 {
		half := d / 2
		d = half + time.Duration(rng.Int63n(int64(half)+1))
	}
	return d
}
