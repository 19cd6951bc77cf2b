package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"attila/internal/fsatomic"
	"attila/internal/jobd"
)

// sweepRecord is the published form of a sweep: its name and the
// names of its jobs. Job specs live one-per-file in queue/ so claims
// are per job.
//
// Pending marks a record whose job specs may not all be on disk yet:
// SubmitSweep publishes the record first (so a crash mid-publish
// leaves a named intent, not orphan specs), writes the specs, then
// republishes with Pending cleared. Peers claim a job as soon as its
// spec exists and any sweep record — pending or not — names it; the
// flag exists so an attaching driver can tell "publish in progress or
// torn" from "fully published".
type sweepRecord struct {
	Name    string   `json:"name"`
	Jobs    []string `json:"jobs"`
	Pending bool     `json:"pending,omitempty"`
}

// Result is one job's published terminal outcome — exactly the data
// the deterministic sweep summary needs, and nothing volatile:
// no timestamps, no attempt counts, no peer identity inside the
// summarized fields. Epoch and Peer ride along for auditing only.
type Result struct {
	Name     string  `json:"name"`
	Config   string  `json:"config"`
	Workload string  `json:"workload"`
	State    string  `json:"state"`
	FailKind string  `json:"failKind,omitempty"`
	Cycles   int64   `json:"cycles,omitempty"`
	FPS      float64 `json:"fps,omitempty"`
	Peer     string  `json:"peer,omitempty"`
	Epoch    int64   `json:"epoch,omitempty"`
}

func (p *Peer) sweepPath(name string) string {
	return filepath.Join(p.opts.Dir, "sweeps", name+".json")
}

// queueShard names the directory a job's spec lives in: one of 256,
// by a 2-hex-digit fnv1a prefix of the job name. It is part of the
// on-disk layout every peer of a fleet must agree on.
func queueShard(job string) string {
	h := fnv.New32a()
	h.Write([]byte(job))
	return fmt.Sprintf("%02x", h.Sum32()&0xff)
}

func (p *Peer) queuePath(job string) string {
	return filepath.Join(p.opts.Dir, "queue", queueShard(job), job+".json")
}

func (p *Peer) resultPath(job string) string {
	return filepath.Join(p.opts.Dir, "results", job+".json")
}

func (p *Peer) summaryPath(sweep string) string {
	return filepath.Join(p.opts.Dir, "out", sweep+"-summary.txt")
}

// SubmitSweep publishes a sweep to the fleet. Order matters for crash
// safety: the sweep record is published FIRST, marked pending, then
// the normalized job specs land one-per-file in the sharded queue,
// then the record is republished final. A crash at any point leaves
// either a pending record (a named intent the resubmit heals — specs
// without a naming record can never exist, so peers never burn cycles
// on work nothing will summarize) or a completed publish. Any peer
// may submit; every peer races to claim the jobs. Resubmitting an
// identical sweep heals missing specs and finalizes the record, so a
// restarted driver attaches instead of colliding; a sweep with the
// same name but different jobs is ErrDuplicate — and is rejected
// before any spec is written, so nothing is stranded.
func (p *Peer) SubmitSweep(spec jobd.SweepSpec) error {
	norm, err := jobd.NormalizeSweep(spec)
	if err != nil {
		return err
	}
	rec := sweepRecord{Name: spec.Name}
	for _, js := range norm {
		rec.Jobs = append(rec.Jobs, js.Name)
	}
	prev, perr := p.readSweepRecord(spec.Name)
	if perr == nil {
		if len(prev.Jobs) != len(rec.Jobs) {
			return fmt.Errorf("%w: sweep %s exists with different jobs", jobd.ErrDuplicate, spec.Name)
		}
		for i := range prev.Jobs {
			if prev.Jobs[i] != rec.Jobs[i] {
				return fmt.Errorf("%w: sweep %s exists with different jobs", jobd.ErrDuplicate, spec.Name)
			}
		}
		// Identical resubmit: fall through to heal any specs a crashed
		// publish left missing and to clear a pending marker.
	} else {
		pending := rec
		pending.Pending = true
		if err := p.writeSweepRecord(pending); err != nil {
			return err
		}
	}
	for _, js := range norm {
		if _, serr := os.Stat(p.queuePath(js.Name)); serr == nil {
			continue // spec already on disk (immutable once written)
		}
		data, err := json.MarshalIndent(js, "", "  ")
		if err != nil {
			return err
		}
		if err := fsatomic.WriteFile(p.queuePath(js.Name), append(data, '\n')); err != nil {
			return err
		}
	}
	if perr == nil && !prev.Pending {
		return nil // record already final and specs verified present
	}
	return p.writeSweepRecord(rec)
}

func (p *Peer) writeSweepRecord(rec sweepRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return fsatomic.WriteFile(p.sweepPath(rec.Name), append(data, '\n'))
}

func (p *Peer) readSweepRecord(name string) (sweepRecord, error) {
	data, err := os.ReadFile(p.sweepPath(name))
	if err != nil {
		return sweepRecord{}, err
	}
	var rec sweepRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return sweepRecord{}, err
	}
	return rec, nil
}

func (p *Peer) readJobSpec(job string) (jobd.JobSpec, error) {
	data, err := os.ReadFile(p.queuePath(job))
	if err != nil {
		return jobd.JobSpec{}, err
	}
	var spec jobd.JobSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return jobd.JobSpec{}, err
	}
	return spec, nil
}

func (p *Peer) writeResult(job string, st jobd.JobStatus) error {
	res := Result{
		Name: st.Name, Config: st.Config, Workload: st.Workload,
		State: string(st.State), FailKind: st.FailKind,
		Cycles: st.Cycles, FPS: st.FPS,
		Peer: p.opts.PeerID, Epoch: p.leaseEpoch(job),
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return fsatomic.WriteFile(p.resultPath(job), append(data, '\n'))
}

func (p *Peer) readResult(job string) (Result, error) {
	data, err := os.ReadFile(p.resultPath(job))
	if err != nil {
		return Result{}, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// finalizeSweeps writes the summary of every sweep whose jobs all
// have published results. The summary is rendered by the same
// deterministic renderer jobd uses (sorted by job name, simulation
// results only), so every peer that finalizes — and a clean
// single-host run — produces identical bytes; the write is atomic and
// idempotent, making the finalize race harmless. Results are read only
// once the view lists every one of a sweep's jobs, and a sweep already
// finalized with identical bytes is remembered so the steady-state
// cost is zero I/O.
func (p *Peer) finalizeSweeps(v *view) {
	for _, rec := range v.sweeps {
		name := rec.Name
		if p.finalized[name] {
			continue
		}
		rows, done := p.sweepRows(v, rec)
		if !done {
			continue
		}
		summary := jobd.RenderSummary(name, rows)
		path := p.summaryPath(name)
		if got, rerr := os.ReadFile(path); rerr == nil && bytes.Equal(got, summary) {
			p.finalized[name] = true
			continue // already finalized with identical bytes
		}
		if werr := fsatomic.WriteFile(path, summary); werr != nil {
			p.logf("fleet: %s: sweep %s summary write failed: %v", p.opts.PeerID, name, werr)
		} else {
			p.finalized[name] = true
			p.logf("fleet: %s: sweep %s finalized", p.opts.PeerID, name)
		}
	}
}

// sweepRows reads a sweep's result rows; done is false until the view
// lists a result for every job and each of them reads back.
func (p *Peer) sweepRows(v *view, rec sweepRecord) ([]jobd.SummaryRow, bool) {
	for _, job := range rec.Jobs {
		if !v.results[job] {
			return nil, false
		}
	}
	rows := make([]jobd.SummaryRow, 0, len(rec.Jobs))
	for _, job := range rec.Jobs {
		res, err := p.readResult(job)
		p.scanReads.Add(1)
		if err != nil {
			return nil, false
		}
		rows = append(rows, jobd.SummaryRow{
			Name: res.Name, Config: res.Config, Workload: res.Workload,
			State: jobd.State(res.State), FailKind: res.FailKind,
			Cycles: res.Cycles, FPS: res.FPS,
		})
	}
	return rows, true
}

// SweepResult is the finalized view WaitSweep returns.
type SweepResult struct {
	Name    string
	Rows    []Result
	Summary []byte
}

// WaitSweep blocks until the named sweep is finalized (every job has
// a result and the summary is on disk) or the context ends. Any
// peer's WaitSweep works — finalization is a shared-filesystem fact,
// not a peer's private state — which is what lets a fleet lose
// all-but-one member mid-sweep and still finish.
func (p *Peer) WaitSweep(ctx context.Context, name string) (SweepResult, error) {
	tick := p.opts.LeaseTTL / 6
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	for {
		rec, err := p.readSweepRecord(name)
		if err == nil {
			all := true
			rows := make([]Result, 0, len(rec.Jobs))
			for _, job := range rec.Jobs {
				res, rerr := p.readResult(job)
				if rerr != nil {
					all = false
					break
				}
				rows = append(rows, res)
			}
			if all {
				if summary, serr := os.ReadFile(p.summaryPath(name)); serr == nil {
					return SweepResult{Name: name, Rows: rows, Summary: summary}, nil
				}
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return SweepResult{}, err
		}
		select {
		case <-ctx.Done():
			return SweepResult{}, ctx.Err()
		case <-time.After(tick):
		}
	}
}
