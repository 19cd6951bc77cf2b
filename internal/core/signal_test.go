package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

type testObj struct {
	DynObject
	val int
}

func newObj(ids *IDSource, val int) *testObj {
	return &testObj{DynObject: DynObject{ID: ids.Next()}, val: val}
}

func expectSimError(t *testing.T, fn func()) *SimError {
	t.Helper()
	var got *SimError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("expected SimError panic, got none")
			}
			se, ok := r.(*SimError)
			if !ok {
				t.Fatalf("expected *SimError, got %v", r)
			}
			got = se
		}()
		fn()
	}()
	return got
}

func TestSignalDeliversAtLatency(t *testing.T) {
	var ids IDSource
	s := NewSignal("wire", 1, 3, 0)
	o := newObj(&ids, 42)
	s.Write(10, o)
	for c := int64(10); c < 13; c++ {
		if got := s.Read(c); got != nil {
			t.Fatalf("cycle %d: object arrived early: %v", c, got)
		}
	}
	got := s.Read(13)
	if len(got) != 1 || got[0].(*testObj).val != 42 {
		t.Fatalf("cycle 13: want [42], got %v", got)
	}
	if s.Read(13) != nil {
		t.Fatal("second read returned data")
	}
	if s.Pending() {
		t.Fatal("signal still pending after delivery")
	}
}

func TestSignalBandwidthEnforced(t *testing.T) {
	var ids IDSource
	s := NewSignal("wire", 2, 1, 0)
	s.Write(5, newObj(&ids, 1))
	s.Write(5, newObj(&ids, 2))
	se := expectSimError(t, func() { s.Write(5, newObj(&ids, 3)) })
	if se.Cycle != 5 || se.Where != "wire" {
		t.Fatalf("wrong error context: %+v", se)
	}
	// A new cycle resets the budget.
	s.Read(6)
	s.Write(6, newObj(&ids, 4))
}

func TestSignalDataLossDetected(t *testing.T) {
	var ids IDSource
	s := NewSignal("wire", 1, 1, 0)
	s.Write(0, newObj(&ids, 1)) // arrives cycle 1, never read
	// ring size is maxLat+1 = 2, so a write at cycle 2 (arrival 3)
	// lands on the same slot as the unread cycle-1 object.
	expectSimError(t, func() { s.Write(2, newObj(&ids, 2)) })
}

func TestSignalWriteLat(t *testing.T) {
	var ids IDSource
	s := NewSignal("alu", 4, 1, 9)
	s.WriteLat(0, 9, newObj(&ids, 9))
	s.WriteLat(0, 1, newObj(&ids, 1))
	if got := s.Read(1); len(got) != 1 || got[0].(*testObj).val != 1 {
		t.Fatalf("lat-1 object: got %v", got)
	}
	if got := s.Read(9); len(got) != 1 || got[0].(*testObj).val != 9 {
		t.Fatalf("lat-9 object: got %v", got)
	}
	expectSimError(t, func() { s.WriteLat(10, 10, newObj(&ids, 0)) })
	expectSimError(t, func() { s.WriteLat(10, 0, newObj(&ids, 0)) })
}

func TestSignalTimeMovesForward(t *testing.T) {
	var ids IDSource
	s := NewSignal("wire", 1, 1, 0)
	s.Write(10, newObj(&ids, 1))
	expectSimError(t, func() { s.Write(9, newObj(&ids, 2)) })
}

func TestSignalFIFOWithinCycleProperty(t *testing.T) {
	// All objects written in one cycle are delivered together, in
	// write order, exactly latency cycles later.
	f := func(vals []int8, latRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		lat := int(latRaw%16) + 1
		var ids IDSource
		s := NewSignal("wire", len(vals), lat, 0)
		for _, v := range vals {
			s.Write(100, newObj(&ids, int(v)))
		}
		got := s.Read(100 + int64(lat))
		if len(got) != len(vals) {
			return false
		}
		for i, o := range got {
			if o.(*testObj).val != int(vals[i]) {
				return false
			}
		}
		return !s.Pending()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSignalTrafficCounts(t *testing.T) {
	var ids IDSource
	s := NewSignal("wire", 4, 2, 0)
	for i := 0; i < 3; i++ {
		s.Write(0, newObj(&ids, i))
	}
	p, c := s.Traffic()
	if p != 3 || c != 0 {
		t.Fatalf("traffic after writes: %d/%d", p, c)
	}
	s.Read(2)
	p, c = s.Traffic()
	if p != 3 || c != 3 {
		t.Fatalf("traffic after read: %d/%d", p, c)
	}
}

func TestNewSignalValidation(t *testing.T) {
	for _, tc := range []struct{ bw, lat int }{{0, 1}, {1, 0}, {-1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSignal(bw=%d,lat=%d) did not panic", tc.bw, tc.lat)
				}
			}()
			NewSignal("bad", tc.bw, tc.lat, 0)
		}()
	}
}

func TestIDSourceUniqueAndNonZero(t *testing.T) {
	var ids IDSource
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := ids.Next()
		if id == 0 {
			t.Fatal("IDSource returned 0")
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestSignalSteadyStateAllocFree(t *testing.T) {
	// Once the ring slots have grown to their high-water capacity,
	// Write/Read must not allocate: Read hands the slot's backing
	// array back to the signal for reuse, and with tracing disabled
	// no trace bookkeeping runs. Guards the hot path against
	// reintroduced per-cycle allocation.
	var ids IDSource
	s := NewSignal("wire", 4, 2, 0)
	objs := make([]Dynamic, 4)
	for i := range objs {
		objs[i] = newObj(&ids, i)
	}
	cycle := int64(0)
	// Warm up: reach steady-state slot capacity.
	for i := 0; i < 8; i++ {
		for _, o := range objs {
			s.Write(cycle, o)
		}
		s.Read(cycle + 2)
		cycle++
	}
	avg := testing.AllocsPerRun(100, func() {
		for _, o := range objs {
			s.Write(cycle, o)
		}
		if got := s.Read(cycle + 2); len(got) != len(objs) {
			t.Fatalf("read %d objects, want %d", len(got), len(objs))
		}
		cycle++
	})
	if avg != 0 {
		t.Fatalf("Signal.Write/Read steady state allocates %.1f allocs/cycle, want 0", avg)
	}
}

func TestSignalReadReusesBacking(t *testing.T) {
	// The slice returned by Read shares its backing array with the
	// ring slot; a later write into the same slot reuses it instead
	// of allocating. Consumers finish with the slice inside their
	// clock cycle, so this is invisible to the simulation.
	var ids IDSource
	s := NewSignal("wire", 2, 1, 0)
	s.Write(0, newObj(&ids, 1))
	got := s.Read(1)
	if len(got) != 1 {
		t.Fatalf("read: %v", got)
	}
	s.Write(2, newObj(&ids, 2)) // arrives cycle 3, same slot as cycle 1
	if &got[:1][0] != &s.ring[1].objs[0] {
		t.Fatal("ring slot did not reuse the returned slice's backing array")
	}
	if got2 := s.Read(3); len(got2) != 1 || got2[0].(*testObj).val != 2 {
		t.Fatalf("reused slot read: %v", got2)
	}
}

// signalModel is the reference for the differential test: objects
// keyed by the cycle they arrive on, nothing else.
type signalModel map[int64][]Dynamic

// lostOn reports whether a write arriving at cycle arrive lands on a
// ring slot still holding unread objects of another cycle — the one
// place the ring length shows through the signal's contract.
func (m signalModel) lostOn(arrive int64, ringLen int) bool {
	for at, objs := range m {
		if len(objs) > 0 && at != arrive && (at-arrive)%int64(ringLen) == 0 {
			return true
		}
	}
	return false
}

// TestSignalMatchesArrivalModel drives random Write/WriteLat/Read
// schedules through a Signal and through a map keyed by arrival cycle.
// Bandwidths 1-4 and maxLat 1-9 cover ring lengths that are rounded up
// to a power of two as well as exact ones. A careful reader reads every
// cycle something arrives on and only some of the others (so the
// empty-wire exit and the ring lookup are both taken on quiet cycles);
// a careless one skips arrivals too, and the data-loss error must fire
// exactly when a later write wraps onto what it left behind.
func TestSignalMatchesArrivalModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 400; run++ {
		bw, maxLat := 1+rng.Intn(4), 1+rng.Intn(9)
		lat := 1 + rng.Intn(maxLat)
		careless := run%4 == 3
		s := NewSignal("wire", bw, lat, maxLat)
		model := signalModel{}
		var ids IDSource
		var produced, consumed uint64
		lost := false
		for c := int64(0); c < 300 && !lost; c++ {
			if want := model[c]; len(want) > 0 && careless && rng.Intn(8) == 0 {
				// left on the wire
			} else if len(want) > 0 || rng.Intn(2) == 0 {
				got := s.Read(c)
				if len(got) != len(want) {
					t.Fatalf("run %d (bw %d lat %d maxLat %d) cycle %d: read %d objects, model has %d", run, bw, lat, maxLat, c, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("run %d cycle %d: object %d differs from the model", run, c, i)
					}
				}
				consumed += uint64(len(got))
				delete(model, c)
			}
			if p, cn := s.Traffic(); p != produced || cn != consumed || s.Pending() != (produced != consumed) {
				t.Fatalf("run %d cycle %d: traffic %d/%d pending %v, model %d/%d", run, c, p, cn, s.Pending(), produced, consumed)
			}
			for n := rng.Intn(bw + 1); n > 0 && !lost; n-- {
				o := newObj(&ids, int(c))
				l := lat
				write := func() { s.Write(c, o) }
				if rng.Intn(2) == 0 {
					l = 1 + rng.Intn(maxLat)
					write = func() { s.WriteLat(c, l, o) }
				}
				arrive := c + int64(l)
				if model.lostOn(arrive, len(s.ring)) {
					expectSimError(t, write)
					lost = true
					break
				}
				write()
				produced++
				model[arrive] = append(model[arrive], o)
			}
		}
	}
}

// TestSignalDataLossRoundedRing: maxLat+1 = 3 slots are rounded up to
// 4, and an unread object is still reported when the ring wraps onto
// it, while every write before that goes through.
func TestSignalDataLossRoundedRing(t *testing.T) {
	var ids IDSource
	s := NewSignal("wire", 1, 2, 0)
	s.Write(0, newObj(&ids, 0)) // arrives cycle 2, never read
	for c := int64(1); ; c++ {
		if c != 2 {
			s.Read(c)
		}
		if c%int64(len(s.ring)) == 0 { // arrival c+2 shares the slot of arrival 2
			se := expectSimError(t, func() { s.Write(c, newObj(&ids, int(c))) })
			if se.Cycle != c || !strings.Contains(se.Msg, "data lost") {
				t.Fatalf("wrong error: %v", se)
			}
			return
		}
		s.Write(c, newObj(&ids, int(c)))
	}
}
