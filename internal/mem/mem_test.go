package mem

import (
	"runtime"
	"testing"

	"attila/internal/core"
)

func TestGPUMemoryReadWrite(t *testing.T) {
	m := NewGPUMemory(1024)
	m.Write32(64, 0xDEADBEEF)
	if got := m.Read32(64); got != 0xDEADBEEF {
		t.Fatalf("read32: %#x", got)
	}
	buf := make([]byte, 4)
	m.ReadBytes(64, buf)
	if buf[0] != 0xEF || buf[3] != 0xDE {
		t.Fatalf("little endian layout: %v", buf)
	}
	m.WriteBytes(100, []byte{1, 2, 3})
	m.ReadBytes(100, buf[:3])
	if buf[0] != 1 || buf[2] != 3 {
		t.Fatalf("bytes: %v", buf)
	}
}

func TestGPUMemoryBoundsPanic(t *testing.T) {
	m := NewGPUMemory(128)
	defer func() {
		if recover() == nil {
			t.Fatal("out of bounds access did not panic")
		}
	}()
	m.Read32(126)
}

// A 64 MiB memory costs its page table until something is written: no
// read, and no empty write, allocates a page.
func TestNewGPUMemoryIsLazy(t *testing.T) {
	buf := make([]byte, 300)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewGPUMemory(64 << 20)
	m.ReadBytes(5*gpuMemPage-100, buf)
	m.Read32(7*gpuMemPage - 2)
	m.Read32(64)
	m.WriteBytes(9*gpuMemPage, nil)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewGPUMemory(64 MiB) and reads allocated %d bytes, want < 64 KiB", got)
	}
	if m.Read32(9*gpuMemPage) != 0 {
		t.Fatal("untouched memory is not zero")
	}
}

// Alloc used to truncate n to 32 bits and mask with a non-power-of-two
// align: a negative size moved the cursor back, a size past 4 GiB
// reserved its low bits, and align 3 misaligned. Each must fail and
// leave the cursor where it was; an exact fit at the end must not.
func TestAllocatorRejectsBadSizes(t *testing.T) {
	a := NewAllocator(0, 1024)
	if _, err := a.Alloc(64, 64); err != nil {
		t.Fatal(err)
	}
	type call struct {
		n     int
		align uint32
	}
	bad := []call{{-1, 64}, {10, 3}, {10, 48}}
	if huge := uint64(1<<32 + 64); uint64(int(huge)) == huge { // a 64-bit int
		bad = append(bad, call{int(huge), 64})
	}
	for _, c := range bad {
		if addr, err := a.Alloc(c.n, c.align); err == nil {
			t.Fatalf("Alloc(%d, %d) = %d, want an error", c.n, c.align, addr)
		}
	}
	addr, err := a.Alloc(1024-64, 1)
	if err != nil || addr != 64 {
		t.Fatalf("exact fit after the refused calls: Alloc = %d, %v; want 64", addr, err)
	}
	if _, err := a.Alloc(1, 1); err == nil {
		t.Fatal("a full arena accepted one more byte")
	}
}

func TestAllocatorAlignment(t *testing.T) {
	a := NewAllocator(100, 1000)
	addr, err := a.Alloc(10, 256)
	if err != nil {
		t.Fatal(err)
	}
	if addr != 256 {
		t.Fatalf("aligned alloc: %d", addr)
	}
	addr2, err := a.Alloc(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if addr2 != 266 {
		t.Fatalf("sequential alloc: %d", addr2)
	}
	if _, err := a.Alloc(10000, 1); err == nil {
		t.Fatal("overcommit accepted")
	}
}

// mcHarness wires a controller with one or two ports into a
// simulator.
type mcHarness struct {
	sim   *core.Simulator
	mc    *Controller
	ports []*Port
}

func newMCHarness(t *testing.T, cfg ControllerConfig, memSize int, clients ...string) *mcHarness {
	t.Helper()
	sim := core.NewSimulator(0)
	h := &mcHarness{sim: sim}
	gm := NewGPUMemory(memSize)
	for _, cl := range clients {
		h.ports = append(h.ports, NewPort(sim, cl, cfg.QueuePerUnit))
	}
	h.mc = NewController(sim, cfg, gm, clients)
	if err := sim.Binder.Validate(); err != nil {
		t.Fatal(err)
	}
	return h
}

// step clocks the controller one cycle (ports are passive).
func (h *mcHarness) step(cycle int64) { h.mc.Clock(cycle) }

func TestControllerRoundTrip(t *testing.T) {
	cfg := DefaultControllerConfig()
	h := newMCHarness(t, cfg, 1<<16, "U")
	p := h.ports[0]

	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	p.Write(0, 512, data, 0)

	var readID uint64
	var got []byte
	for cyc := int64(0); cyc < 200; cyc++ {
		h.step(cyc)
		for _, rep := range p.Replies(cyc) {
			if rep.Op == OpWrite {
				// After the write completes, read it back.
				readID = p.Read(cyc, 512, 64, 0)
			} else if rep.ReqID == readID {
				got = rep.Data
			}
		}
		if got != nil {
			break
		}
	}
	if got == nil {
		t.Fatal("read never completed")
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("data mismatch at %d: %d", i, got[i])
		}
	}
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding: %d", p.Outstanding())
	}
}

func TestControllerLatencyModel(t *testing.T) {
	cfg := DefaultControllerConfig()
	cfg.PagePenalty = 20
	cfg.BaseLatency = 10
	h := newMCHarness(t, cfg, 1<<16, "U")
	p := h.ports[0]

	complete := func(issueCycle int64, addr uint32) int64 {
		p.Read(issueCycle, addr, 64, 0)
		for cyc := issueCycle; cyc < issueCycle+500; cyc++ {
			h.step(cyc)
			if len(p.Replies(cyc)) > 0 {
				return cyc
			}
		}
		t.Fatal("request never completed")
		return 0
	}

	// First access: page miss. 64B/16Bpc = 4 cycles + 20 page + 10 base.
	t0 := complete(0, 0)
	// Second access, same page: no page penalty -> faster.
	t1 := complete(t0+1, 64)
	d0 := t0 - 0
	d1 := t1 - (t0 + 1)
	if d1 >= d0 {
		t.Fatalf("page hit (%d cycles) not faster than page miss (%d cycles)", d1, d0)
	}
	if d0 < 34 {
		t.Fatalf("page miss too fast: %d cycles", d0)
	}
}

func TestControllerChannelInterleave(t *testing.T) {
	cfg := DefaultControllerConfig()
	h := newMCHarness(t, cfg, 1<<16, "U")
	if h.mc.channelOf(0) != 0 || h.mc.channelOf(256) != 1 ||
		h.mc.channelOf(512) != 2 || h.mc.channelOf(768) != 3 ||
		h.mc.channelOf(1024) != 0 {
		t.Fatal("256-byte channel interleave wrong")
	}
}

func TestControllerParallelChannels(t *testing.T) {
	// Two transactions on different channels should overlap; two on
	// the same channel must serialize.
	run := func(a1, a2 uint32) int64 {
		cfg := DefaultControllerConfig()
		h := newMCHarness(t, cfg, 1<<16, "U")
		p := h.ports[0]
		p.Read(0, a1, 64, 0)
		p.Read(0, a2, 64, 0)
		done := 0
		for cyc := int64(0); cyc < 500; cyc++ {
			h.step(cyc)
			done += len(p.Replies(cyc))
			if done == 2 {
				return cyc
			}
		}
		t.Fatal("requests never completed")
		return 0
	}
	parallel := run(0, 256) // channels 0 and 1
	serial := run(0, 64)    // both channel 0
	if parallel >= serial {
		t.Fatalf("parallel channels (%d) not faster than serial (%d)", parallel, serial)
	}
}

func TestControllerFairnessAcrossClients(t *testing.T) {
	cfg := DefaultControllerConfig()
	h := newMCHarness(t, cfg, 1<<16, "A", "B")
	pa, pb := h.ports[0], h.ports[1]
	// Both clients hammer channel 0.
	for i := 0; i < 4; i++ {
		pa.Read(0, uint32(i)*1024, 64, 0)
		pb.Read(0, uint32(i)*1024+64, 64, 0)
	}
	var aDone, bDone int
	var firstA, firstB int64 = -1, -1
	for cyc := int64(0); cyc < 2000 && (aDone < 4 || bDone < 4); cyc++ {
		h.step(cyc)
		if n := len(pa.Replies(cyc)); n > 0 {
			aDone += n
			if firstA < 0 {
				firstA = cyc
			}
		}
		if n := len(pb.Replies(cyc)); n > 0 {
			bDone += n
			if firstB < 0 {
				firstB = cyc
			}
		}
	}
	if aDone != 4 || bDone != 4 {
		t.Fatalf("completion: A=%d B=%d", aDone, bDone)
	}
	// Round-robin: neither client should finish all its requests
	// before the other gets any service.
	if firstB < 0 || firstA < 0 {
		t.Fatal("a client was starved")
	}
}

// One client with a transaction on every channel gets all the replies
// in the same cycle: the reply wire must carry Channels objects even
// when ReplyQueueLen is smaller (a bw-ReplyQueueLen wire used to
// panic with a bandwidth violation on 8-channel configs).
func TestControllerReplyBandwidthManyChannels(t *testing.T) {
	cfg := DefaultControllerConfig()
	cfg.Channels = 8
	cfg.ReplyQueueLen = 4
	h := newMCHarness(t, cfg, 1<<16, "U")
	p := h.ports[0]
	// One read per channel (256-byte interleave), identical timing, so
	// all eight complete on the same cycle.
	for i := 0; i < 8; i++ {
		p.Read(0, uint32(i)*256, 64, 0)
	}
	done := 0
	burst := 0
	for cyc := int64(0); cyc < 500 && done < 8; cyc++ {
		h.step(cyc)
		if n := len(p.Replies(cyc)); n > 0 {
			done += n
			if n > burst {
				burst = n
			}
		}
	}
	if done != 8 {
		t.Fatalf("completed %d of 8", done)
	}
	if burst != 8 {
		t.Fatalf("replies did not complete in one cycle (largest burst %d)", burst)
	}
}

// The first operation on an idle channel pays no bus turnaround: the
// zero-valued channel state reads as "last op was a read", which used
// to charge every leading write a read-to-write penalty and count it
// in MC.turnarounds.
func TestControllerFirstWriteNoTurnaround(t *testing.T) {
	cfg := DefaultControllerConfig()
	h := newMCHarness(t, cfg, 1<<16, "U")
	p := h.ports[0]
	p.Write(0, 0, make([]byte, 64), 0)
	cyc := int64(0)
	for ; cyc < 200; cyc++ {
		h.step(cyc)
		if len(p.Replies(cyc)) > 0 {
			break
		}
	}
	if got := h.sim.Stats.Lookup("MC.turnarounds").Value(); got != 0 {
		t.Fatalf("first write charged a turnaround (count %v)", got)
	}
	// A genuine direction switch on the now-warm channel still counts.
	p.Read(cyc+1, 0, 64, 0)
	for end := cyc + 200; cyc < end; cyc++ {
		h.step(cyc)
		if len(p.Replies(cyc)) > 0 {
			break
		}
	}
	if got := h.sim.Stats.Lookup("MC.turnarounds").Value(); got != 1 {
		t.Fatalf("write-to-read turnaround not counted (count %v)", got)
	}
}

func TestControllerStats(t *testing.T) {
	cfg := DefaultControllerConfig()
	h := newMCHarness(t, cfg, 1<<16, "U")
	p := h.ports[0]
	p.Read(0, 0, 64, 0)
	p.Write(0, 4096, make([]byte, 32), 0)
	for cyc := int64(0); cyc < 300; cyc++ {
		h.step(cyc)
		p.Replies(cyc)
	}
	if got := h.sim.Stats.Lookup("MC.readBytes").Value(); got != 64 {
		t.Fatalf("readBytes: %v", got)
	}
	if got := h.sim.Stats.Lookup("MC.writeBytes").Value(); got != 32 {
		t.Fatalf("writeBytes: %v", got)
	}
	if got := h.sim.Stats.Lookup("MC.U.readBytes").Value(); got != 64 {
		t.Fatalf("client readBytes: %v", got)
	}
}
