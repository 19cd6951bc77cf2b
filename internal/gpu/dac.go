package gpu

import (
	"fmt"
	"io"

	"attila/internal/core"
	"attila/internal/mem"
)

// DAC models the display output unit (paper §2.2): its main task in
// the simulator is dumping the color buffer into an image so the
// rendered output can be verified against a reference. It reads the
// front buffer block by block through its own memory controller
// port, consuming real memory bandwidth; fast-cleared blocks are
// synthesized from the ROP clear state without memory traffic.
type DAC struct {
	core.BoxBase
	port  *mem.Port
	ropcs []*ColorWrite

	refreshCycles int64
	frontFn       func() SurfaceLayout
	refreshAddr   int

	active  bool
	layout  SurfaceLayout
	image   []byte         // RGBA, W*H*4
	block   int            // next block to request
	pending map[uint64]int // transaction id -> block*4+piece
	left    int

	frames []*Frame
	cp     *core.BoxBase // woken as a dump completes

	statBlocks  core.Counter
	statSynth   core.Counter
	statRefresh core.Counter
}

// Frame is one dumped image.
type Frame struct {
	W, H int
	Pix  []byte // RGBA rows top to bottom... stored bottom-up like GL; WritePPM flips
}

// NewDAC builds the box; ropcs provide fast-clear block state.
// refreshCycles > 0 enables continuous screen-refresh reads of the
// front buffer (frontFn) between frame dumps.
func NewDAC(sim *core.Simulator, ropcs []*ColorWrite, refreshCycles int64, frontFn func() SurfaceLayout) *DAC {
	d := &DAC{
		ropcs: ropcs, pending: make(map[uint64]int),
		refreshCycles: refreshCycles, frontFn: frontFn,
	}
	d.Init("DAC")
	d.port = mem.NewPort(sim, "DAC", 8)
	sim.Stats.ShadowCounter(&d.statBlocks, "DAC.blocksRead")
	sim.Stats.ShadowCounter(&d.statSynth, "DAC.blocksSynthesized")
	sim.Stats.ShadowCounter(&d.statRefresh, "DAC.refreshBytes")
	sim.Register(d)
	return d
}

// StartDump begins reading the given buffer; Done reports completion
// and Frames accumulates the images.
func (d *DAC) StartDump(layout SurfaceLayout) {
	if d.active {
		panic("gpu: DAC dump already in progress")
	}
	d.Wake()
	d.active = true
	d.layout = layout
	d.image = make([]byte, layout.W*layout.H*4)
	d.block = 0
	d.left = layout.NumBlocks()
}

// Done reports whether no dump is in progress.
func (d *DAC) Done() bool { return !d.active }

// Frames returns the dumped frames in order.
func (d *DAC) Frames() []*Frame { return d.frames }

// Clock implements core.Box.
func (d *DAC) Clock(cycle int64) {
	if !d.active {
		// Screen refresh: a steady trickle of front-buffer reads,
		// scanning the surface round robin. Replies are discarded
		// (the "display" consumes them); only the bandwidth matters.
		if d.refreshCycles > 0 && cycle%d.refreshCycles == 0 && d.port.CanIssue() {
			layout := d.frontFn()
			total := layout.Bytes() / 64
			if total > 0 {
				addr := layout.Base + uint32((d.refreshAddr%total)*64)
				d.port.Read(cycle, addr, 64, 0)
				d.refreshAddr++
				d.statRefresh.Add(64)
			}
		}
		d.port.Replies(cycle)
		// Without refresh nothing happens until StartDump. Counting
		// refresh cycles needs the clock.
		if d.refreshCycles <= 0 && d.port.Idle() {
			d.Park()
		}
		return
	}
	for _, rep := range d.port.Replies(cycle) {
		tag, ok := d.pending[rep.ReqID]
		if !ok {
			continue // refresh reply still in flight at dump start
		}
		delete(d.pending, rep.ReqID)
		blk := tag / 4
		piece := tag % 4
		d.storeBlockPiece(blk, piece, rep.Data)
		if piece == 3 {
			d.left--
			d.statBlocks.Inc()
		}
	}
	total := d.layout.NumBlocks()
	for d.block < total && d.port.CanIssue() {
		blk := d.block
		bx := blk % ((d.layout.W + SurfaceTile - 1) / SurfaceTile)
		by := blk / ((d.layout.W + SurfaceTile - 1) / SurfaceTile)
		x, y := bx*SurfaceTile, by*SurfaceTile
		rop := d.ropcs[d.layout.BlockIndex(x, y)%len(d.ropcs)]
		if clear, val := rop.BlockClear(d.layout.Base, blk); clear {
			var line [SurfaceBlockBytes]byte
			for i := 0; i < SurfaceBlockBytes; i += 4 {
				copy(line[i:], val[:])
			}
			for piece := 0; piece < 4; piece++ {
				d.storeBlockPiece(blk, piece, line[piece*64:piece*64+64])
			}
			d.left--
			d.statSynth.Inc()
			d.block++
			continue
		}
		// 256-byte block = four 64-byte transactions.
		addr := d.layout.BlockAddr(x, y)
		canAll := true
		if d.port.Outstanding()+4 > 8 {
			canAll = false
		}
		if !canAll {
			break
		}
		for piece := 0; piece < 4; piece++ {
			id := d.port.Read(cycle, addr+uint32(piece*64), 64, 0)
			d.pending[id] = blk*4 + piece
		}
		d.block++
	}
	if d.left == 0 && d.block == total {
		d.frames = append(d.frames, &Frame{W: d.layout.W, H: d.layout.H, Pix: d.image})
		d.active = false
		d.cp.Wake()
	}
}

// storeBlockPiece scatters 64 bytes (16 pixels of the tiled block)
// into the linear image.
func (d *DAC) storeBlockPiece(blk, piece int, data []byte) {
	tilesX := (d.layout.W + SurfaceTile - 1) / SurfaceTile
	bx, by := blk%tilesX, blk/tilesX
	for i := 0; i < 16; i++ {
		idx := piece*16 + i // pixel index within the 8x8 tile
		px := bx*SurfaceTile + idx%SurfaceTile
		py := by*SurfaceTile + idx/SurfaceTile
		if px >= d.layout.W || py >= d.layout.H {
			continue
		}
		copy(d.image[(py*d.layout.W+px)*4:], data[i*4:i*4+4])
	}
}

// WritePPM writes the frame as a binary PPM (colors only, alpha
// dropped), top row first. GL window coordinates have y up, so rows
// are flipped.
func (f *Frame) WritePPM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", f.W, f.H); err != nil {
		return err
	}
	row := make([]byte, f.W*3)
	for y := f.H - 1; y >= 0; y-- {
		for x := 0; x < f.W; x++ {
			copy(row[x*3:], f.Pix[(y*f.W+x)*4:(y*f.W+x)*4+3])
		}
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// DiffFrames compares two frames and returns the count of differing
// pixels and the maximum per-channel difference; the Figure 10 style
// verification between the simulator's DAC dump and the reference
// renderer.
func DiffFrames(a, b *Frame) (diffPixels int, maxDelta int) {
	if a.W != b.W || a.H != b.H {
		return a.W*a.H + b.W*b.H, 255
	}
	for i := 0; i < len(a.Pix); i += 4 {
		differs := false
		for c := 0; c < 4; c++ {
			d := int(a.Pix[i+c]) - int(b.Pix[i+c])
			if d < 0 {
				d = -d
			}
			if d > 0 {
				differs = true
			}
			if d > maxDelta {
				maxDelta = d
			}
		}
		if differs {
			diffPixels++
		}
	}
	return diffPixels, maxDelta
}
