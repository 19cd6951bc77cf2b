package core

import (
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
)

// BarrierBoxName is the pseudo-box under which the parallel
// coordinator reports its join-barrier wait time to the clock
// observer, so sync cost stays out of the real boxes' attribution. The
// parenthesized name cannot collide with a registered box (box names
// are identifiers).
const BarrierBoxName = "(barrier)"

// pseudoBox satisfies Box for observer-only entities like the
// barrier row; it is never registered or clocked.
type pseudoBox struct{ name string }

func (p pseudoBox) BoxName() string { return p.name }
func (p pseudoBox) Clock(int64)     {}

// pinUnit is one indivisible scheduling unit of the partition: a pin
// group or a single unpinned box, anchored at its first registration
// position so the unit order is deterministic.
type pinUnit struct {
	boxes []Box
	order int     // first registration index
	cost  float64 // summed per-box cost, for bin packing
}

// minBoxCost floors every box's cost so a unit never weighs zero: a
// zero-cost unit could be stacked without bound onto one shard,
// leaving workers idle on uniform-cost topologies.
const minBoxCost = 1e-3

// pinUnits groups the registered boxes into indivisible units. The
// grouping depends only on registration and pin order.
func (s *Simulator) pinUnits() []pinUnit {
	var units []pinUnit
	groupIdx := make(map[string]int)
	for i, b := range s.boxes {
		if g, pinned := s.pinGroup[b]; pinned {
			if u, seen := groupIdx[g]; seen {
				units[u].boxes = append(units[u].boxes, b)
				continue
			}
			groupIdx[g] = len(units)
		}
		units = append(units, pinUnit{boxes: []Box{b}, order: i})
	}
	return units
}

// costOf returns the configured cost estimate for one box, floored at
// minBoxCost. costs may be nil (uniform).
func costOf(costs map[string]float64, b Box) float64 {
	c := 1.0
	if costs != nil {
		if v, ok := costs[b.BoxName()]; ok {
			c = v
		}
	}
	if c < minBoxCost {
		c = minBoxCost
	}
	return c
}

// partition splits the registered boxes into per-worker shards using
// the current cost model (SetBoxCosts, or uniform costs by default):
// boxes pinned to one group form an indivisible unit, every unpinned
// box is its own unit, and units are placed by greedy
// longest-processing-time bin packing — heaviest unit first, each
// onto the least-loaded shard. Ties break by registration order and
// lowest shard index, so the split depends only on registration, pin
// order and the cost model, never on scheduling. Within a shard,
// boxes stay in registration order.
func (s *Simulator) partition(nw int) [][]Box {
	units := s.pinUnits()
	if nw > len(units) {
		nw = len(units)
	}
	for i := range units {
		for _, b := range units[i].boxes {
			units[i].cost += costOf(s.boxCosts, b)
		}
	}
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ua, ub := &units[order[a]], &units[order[b]]
		if ua.cost != ub.cost {
			return ua.cost > ub.cost
		}
		return ua.order < ub.order
	})
	load := make([]float64, nw)
	assigned := make([][]int, nw) // unit indexes per shard
	for _, u := range order {
		best := 0
		for w := 1; w < nw; w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		load[best] += units[u].cost
		assigned[best] = append(assigned[best], u)
	}
	shards := make([][]Box, nw)
	for w := range assigned {
		sort.Ints(assigned[w]) // registration order within the shard
		for _, u := range assigned[w] {
			shards[w] = append(shards[w], units[u].boxes...)
		}
	}
	return shards
}

// warnedWorkers dedupes the worker-sizing warnings: one line per
// distinct situation per process, not one per Run (sweeps and test
// suites would otherwise drown in them).
var warnedWorkers sync.Map

func warnWorkersOnce(key, msg string, args ...any) {
	if _, dup := warnedWorkers.LoadOrStore(key, true); !dup {
		slog.Warn(msg, args...)
	}
}

// resolveWorkers translates the configured worker count into the
// effective shard count for this Run: the request is clamped to both
// the schedulable processors and the shardable unit count (extra
// workers would only add barrier participants). A request exceeding the
// online CPUs is honored up to GOMAXPROCS but flagged, since such a
// run measures scheduling overhead, not parallel speedup.
func (s *Simulator) resolveWorkers() int {
	req := s.workers
	units := len(s.pinUnits())
	maxProcs := runtime.GOMAXPROCS(0)
	n := req
	if n > units {
		n = units
	}
	if n > maxProcs {
		warnWorkersOnce(
			fmt.Sprintf("clamp:%d:%d", req, maxProcs),
			"parallel workers clamped to schedulable processors",
			"requested", req, "effective", maxProcs,
			"gomaxprocs", maxProcs, "cpus_online", runtime.NumCPU(),
			"shardable_units", units)
		n = maxProcs
	}
	if n > 1 && n > runtime.NumCPU() {
		warnWorkersOnce(
			fmt.Sprintf("cpus:%d:%d", n, runtime.NumCPU()),
			"parallel workers exceed online CPUs; run measures overhead, not speedup",
			"requested", req, "effective", n,
			"gomaxprocs", maxProcs, "cpus_online", runtime.NumCPU(),
			"shardable_units", units)
	}
	return n
}
