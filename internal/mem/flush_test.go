package mem

import (
	"reflect"
	"testing"

	"attila/internal/core"
)

// flushHooks store a line verbatim, except that a line whose first
// byte is even encodes to its first quarter (one transaction instead
// of four), so the lines of a flush compete for port slots unequally.
type flushHooks struct{ encodes int }

func (*flushHooks) FillPlan(key uint32) FillPlan        { return FillPlan{FetchAddr: key} }
func (*flushHooks) Synthesize(key uint32, line []byte)  { panic("no synth") }
func (*flushHooks) Decode(key uint32, raw, line []byte) { copy(line, raw) }
func (h *flushHooks) Encode(key uint32, line []byte) (uint32, []byte) {
	h.encodes++
	if line[0]%2 == 0 {
		return key, line[:len(line)/4]
	}
	return key, line
}

type portWrite struct {
	cycle int64
	addr  uint32
	size  int
}

// slowMemory stands in for the controller on a cache's port: it logs
// every write on the cycle the port issued it and acknowledges one
// transaction per cycle after a fixed delay, so a flush of more lines
// than the port has slots takes many cycles.
type slowMemory struct {
	req, reply *core.Signal
	queue      []*Request
	due        []int64
	writes     []portWrite
}

func (m *slowMemory) clock(cycle int64) {
	for _, o := range m.req.Read(cycle) {
		r := o.(*Request)
		if r.Op == OpWrite {
			m.writes = append(m.writes, portWrite{cycle - 1, r.Addr, r.Size})
		}
		m.queue = append(m.queue, r)
		m.due = append(m.due, cycle+5)
	}
	if len(m.queue) > 0 && m.due[0] <= cycle {
		r := m.queue[0]
		m.queue, m.due = m.queue[1:], m.due[1:]
		rep := &Reply{ReqID: r.ID, Op: r.Op, Addr: r.Addr, Size: r.Size}
		if r.Op == OpRead {
			rep.Data = make([]byte, r.Size)
		}
		m.reply.Write(cycle, rep)
	}
}

// flushModel is Cache.FlushDirty as it was before the flush memo:
// encode every dirty line on every call.
func flushModel(c *Cache, cycle int64) bool {
	done := true
	for s := range c.sets {
		for w := range c.sets[s] {
			ln := &c.sets[s][w]
			if !ln.valid || !ln.dirty {
				continue
			}
			addr, raw := c.hooks.Encode(ln.key, ln.data)
			need := transactionsFor(len(raw))
			if c.port.limit-c.port.outstanding < need {
				done = false
				continue
			}
			for off := 0; off < len(raw); off += TransactionSize {
				end := off + TransactionSize
				if end > len(raw) {
					end = len(raw)
				}
				c.port.Write(cycle, addr+uint32(off), raw[off:end], 0)
			}
			ln.dirty = false
			c.statEvicts.Inc()
		}
	}
	return done
}

// runFlush dirties every line of a 16-line cache, flushes it through
// flush and clocks until the cache quiesces.
func runFlush(t *testing.T, flush func(*Cache, int64) bool) (lines, encodes int, writes []portWrite) {
	t.Helper()
	sim := core.NewSimulator(0)
	hooks := &flushHooks{}
	cfg := CacheConfig{Name: "C", Sets: 4, Assoc: 4, LineBytes: 256, MissQ: 4, PortLimit: 8}
	c := NewCache(sim, cfg, hooks)
	m := &slowMemory{reply: sim.Binder.Provide("MC", "MC.C.Reply", 1, 1, 0)}
	sim.Binder.Bind("MC", "C.MemReq", &m.req)
	if err := sim.Binder.Validate(); err != nil {
		t.Fatal(err)
	}
	var cycle int64
	step := func() {
		c.Clock(cycle)
		m.clock(cycle)
		cycle++
	}
	perSet := make([]int, cfg.Sets)
	for key := uint32(0); lines < cfg.Sets*cfg.Assoc; key += 256 {
		set := c.setOf(key)
		if perSet[set] == cfg.Assoc {
			continue // a fifth line would evict one: try the next key
		}
		perSet[set]++
		if !c.RequestFill(cycle, key) {
			t.Fatalf("RequestFill(%#x) rejected", key)
		}
		for !c.Probe(key) {
			step()
		}
		c.Write(key, 0, []byte{byte(lines % 3)}) // a mix of 1- and 4-transaction lines
		lines++
	}
	for !c.Quiesce() {
		step()
	}
	hooks.encodes, m.writes = 0, nil
	for issued := false; !issued || !c.Quiesce(); {
		c.Clock(cycle)
		if !issued {
			issued = flush(c, cycle)
		}
		m.clock(cycle)
		cycle++
	}
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].dirty {
				t.Fatalf("line %d/%d still dirty after the flush", s, w)
			}
		}
	}
	return lines, hooks.encodes, m.writes
}

// TestFlushDirtyEncodesEachLineOnce: a line waiting for port slots is
// encoded when the flush starts and when it is written, not on every
// cycle in between, and the writes leave in the same order, on the
// same cycles, as when it was.
func TestFlushDirtyEncodesEachLineOnce(t *testing.T) {
	lines, modelEncodes, want := runFlush(t, flushModel)
	if modelEncodes <= 2*lines || len(want) < lines {
		t.Fatalf("model flush made %d Encode calls and %d writes for %d lines: the flush never waited for the port", modelEncodes, len(want), lines)
	}
	_, encodes, got := runFlush(t, (*Cache).FlushDirty)
	if encodes > 2*lines {
		t.Errorf("Encode called %d times for %d dirty lines (model: %d); want at most %d", encodes, lines, modelEncodes, 2*lines)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("port writes differ from the encode-every-cycle model:\n got %v\nwant %v", got, want)
	}
}
