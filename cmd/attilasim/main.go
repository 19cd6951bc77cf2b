// Command attilasim runs a captured trace through the cycle-level
// timing simulator: the top-level simulator binary of the ATTILA
// framework (paper §3-4). It prints performance results and can dump
// the per-interval statistics CSV, the rendered frames, a signal
// trace for cmd/sigtrace, and verify the output against the
// functional reference renderer.
//
// A failed run is still a run: on deadlock, panic, SIGINT/SIGTERM or
// -timeout expiry, every requested output (-stats, -summary, -frames,
// -sigtrace) is flushed with the partial results before exiting
// nonzero, and -blackbox captures a machine-readable crash report.
//
// Exit codes: 0 success; 1 simulation failure (model violation,
// panic, cycle budget); 2 deadlock detected by -watchdog;
// 3 interrupted or timed out; 4 usage or input errors.
//
// Usage:
//
//	attilasim -trace doom3.attila -config casestudy -tus 2 -stats stats.csv -verify
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"syscall"
	"time"

	"attila/internal/chaos"
	"attila/internal/core"
	"attila/internal/gpu"
	"attila/internal/obsv"
	spantrace "attila/internal/obsv/trace"
	"attila/internal/refrender"
	"attila/internal/run"
	"attila/internal/trace"
)

func main() {
	os.Exit(simulate())
}

func simulate() int {
	in := flag.String("trace", "", "input trace file")
	preset := flag.String("config", "baseline-unified", "config preset: baseline|baseline-unified|casestudy|embedded|highend")
	tus := flag.Int("tus", 0, "override texture unit count (casestudy sweep)")
	shaders := flag.Int("shaders", 0, "override shader unit count")
	rops := flag.Int("rops", 0, "override ROP pair count")
	sched := flag.String("sched", "window", "shader scheduling: window|inorder")
	start := flag.Int("start", 0, "hot start frame")
	end := flag.Int("end", -1, "end frame (exclusive, -1 = all)")
	statsOut := flag.String("stats", "", "write interval statistics CSV to file")
	summaryOut := flag.String("summary", "", "write cumulative statistics to file")
	framesOut := flag.String("frames", "", "directory for PPM frame dumps")
	sigOut := flag.String("sigtrace", "", "write a signal trace file (large!)")
	verify := flag.Bool("verify", false, "compare frames against the functional reference")
	maxCycles := flag.Int64("max-cycles", 2_000_000_000, "cycle budget")
	watchdog := flag.Int64("watchdog", 0, "abort with a deadlock report after this many cycles without progress (0 = off)")
	timeout := flag.Duration("timeout", 0, "wall-clock limit for the simulation (0 = none)")
	blackbox := flag.String("blackbox", "", "write a JSON crash report here when the run fails")
	httpAddr := flag.String("http", "", "serve live status on this address (e.g. :6060): /metrics, /progress, /crash, /debug/pprof")
	httpLinger := flag.Duration("http-linger", 0, "keep the status server up this long after the run ends (inspect /crash post-mortem)")
	metricsOut := flag.String("metrics", "", "write the metrics bus as NDJSON to file: one window per stats interval row")
	profileBoxes := flag.Bool("profile-boxes", false, "attribute host time to boxes (sampled; prints a ranked table)")
	perfettoOut := flag.String("perfetto", "", "write a Perfetto/Chrome trace-event JSON of box activity to file")
	manifestOut := flag.String("manifest", "auto", "run manifest path; auto = run-manifest.json next to the first output, none = disabled")
	ckptInterval := flag.Int64("checkpoint-interval", 0, "write a checkpoint every N cycles, at the next quiesced barrier (0 = off)")
	ckptOut := flag.String("checkpoint", "", "checkpoint file (default <trace>.ckpt when -checkpoint-interval is set)")
	restoreFrom := flag.String("restore", "", "resume from a checkpoint file written by -checkpoint-interval")
	chaosSpec := flag.String("chaos", "", "seeded fault injection plan, e.g. seed=7,panic@cycle=100000 (see internal/chaos)")
	skipCorrupt := flag.Bool("trace-skip-corrupt", false, "skip corrupt trace records by resyncing to the next parseable record")
	traceSample := flag.String("trace-sample", "", "request tracing: keep 1 in N memory/shader spans, e.g. 1/64 (off by default)")
	traceSeed := flag.Uint64("trace-seed", 1, "seed for the deterministic span sampler")
	spansOut := flag.String("spans", "", "write the retained sampled spans as NDJSON to file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation run to file")
	flag.Parse()

	if *in == "" {
		return fail(run.ExitUsage, errors.New("need -trace (generate one with tracegen)"))
	}
	sampleRate, err := spantrace.ParseSampleRate(*traceSample)
	if err != nil {
		return fail(run.ExitUsage, err)
	}
	if *spansOut != "" && sampleRate == 0 {
		return fail(run.ExitUsage, errors.New("-spans needs -trace-sample (e.g. -trace-sample 1/64)"))
	}

	var plan *chaos.Plan
	if *chaosSpec != "" {
		var err error
		plan, err = chaos.Parse(*chaosSpec)
		if err != nil {
			return fail(run.ExitUsage, err)
		}
	}

	mode := gpu.ScheduleWindow
	if *sched == "inorder" {
		mode = gpu.ScheduleInOrderQueue
	}
	var cfg gpu.Config
	switch *preset {
	case "baseline":
		cfg = gpu.Baseline()
	case "baseline-unified":
		cfg = gpu.BaselineUnified()
	case "casestudy":
		cfg = gpu.CaseStudy(3, mode)
	case "embedded":
		cfg = gpu.Embedded()
	case "highend":
		cfg = gpu.HighEnd()
	default:
		return fail(run.ExitUsage, fmt.Errorf("unknown config preset %q", *preset))
	}
	cfg.Schedule = mode
	if *tus > 0 {
		cfg.NumTextureUnits = *tus
	}
	if *shaders > 0 {
		cfg.NumShaders = *shaders
	}
	if *rops > 0 {
		cfg.NumROPs = *rops
	}
	cfg.WatchdogWindow = *watchdog

	f, err := os.Open(*in)
	if err != nil {
		return fail(run.ExitUsage, err)
	}
	defer f.Close()
	var src io.Reader = f
	if plan != nil {
		// A trace fault wraps the file in a corrupting reader. The
		// wrapper hides Seek, so -trace-skip-corrupt cannot resync past
		// injected damage — that is the point of the fault.
		src = plan.CorruptReader(src)
	}
	r, err := trace.NewReader(src)
	if err != nil {
		return fail(run.ExitUsage, traceErr(*in, err))
	}
	r.SetSkipCorrupt(*skipCorrupt)
	hdr := r.Header()
	cmds, err := r.ReadAll(*start, *end)
	if err != nil {
		return fail(run.ExitUsage, traceErr(*in, err))
	}
	if regions, skippedBytes := r.Skipped(); regions > 0 {
		fmt.Printf("trace %s: skipped %d corrupt region(s), %d bytes — output may not match the capture\n",
			*in, regions, skippedBytes)
	}

	man := obsv.NewManifest("attilasim", flag.CommandLine)
	man.Trace = *in
	man.Config = *preset
	// What to run and what to hang on it; internal/run builds the machine
	// and attaches the observers in its one order. The workload
	// fingerprint ties a checkpoint to the command stream it indexes into;
	// restoring against a different trace or frame range is refused
	// before any state is touched.
	workload := fmt.Sprintf("%s %dx%d frames[%d:%d] cmds=%d", hdr.Label, hdr.Width, hdr.Height, *start, *end, len(cmds))
	ckptPath := *ckptOut
	if ckptPath == "" && *ckptInterval > 0 {
		ckptPath = *in + ".ckpt"
	}
	spec := run.Spec{
		Config: cfg, Width: hdr.Width, Height: hdr.Height,
		Source:      run.Commands(cmds, workload),
		MaxCycles:   *maxCycles,
		Spans:       spantrace.Options{SampleRate: sampleRate, Seed: *traceSeed},
		Chaos:       plan,
		Checkpoint:  run.Checkpoint{Path: ckptPath, Interval: *ckptInterval},
		RestoreFrom: *restoreFrom,
	}
	var sigWriter *core.SigTraceWriter
	if *sigOut != "" {
		sf, err := os.Create(*sigOut)
		if err != nil {
			return fail(run.ExitUsage, err)
		}
		defer sf.Close()
		sigWriter = core.NewSigTraceWriter(sf)
		spec.SigTrace = sigWriter
	}
	// Observability: the metrics bus reads every stats interval row, the
	// profiler times sampled box clocks, and the status server makes
	// both (plus the crash black box) reachable while the run is live.
	if *httpAddr != "" || *metricsOut != "" || *perfettoOut != "" {
		goalFrames := int64(hdr.Frames - *start)
		if *end >= 0 && *end < hdr.Frames {
			goalFrames = int64(*end - *start)
		}
		if goalFrames < 0 {
			goalFrames = 0
		}
		spec.Bus = &obsv.BusOptions{Goal: *maxCycles, GoalFrames: goalFrames}
	}
	if *profileBoxes {
		spec.Profiler = obsv.NewProfiler()
	}
	// A -restore that cannot be honored is an input error: unlike jobd's
	// retries, this run was asked for that checkpoint.
	sess, err := run.Start(spec)
	if err != nil {
		return fail(run.ExitUsage, err)
	}
	pipe, col, bus, eng, prof := sess.Pipe, sess.Spans, sess.Bus, sess.Engine, spec.Profiler
	restored := *restoreFrom != ""
	if col != nil {
		man.Tracing = &obsv.TracingConfig{SampleRate: sampleRate, Seed: *traceSeed, Buckets: spantrace.NumBuckets}
	}
	if plan != nil {
		fmt.Println("chaos:", plan)
	}
	if restored {
		man.RestoredFrom = *restoreFrom
		man.RestoredCycle = sess.RestoredCycle
		fmt.Printf("restored %s: resuming at cycle %d\n", *restoreFrom, sess.RestoredCycle)
	}

	var srv *obsv.Server
	if *httpAddr != "" {
		srv = obsv.NewServer(*httpAddr, obsv.ServerOptions{
			Bus:      bus,
			Profiler: prof,
			Spans:    col,
			Crash:    pipe.Sim.Crash,
			Manifest: func() *obsv.Manifest { return man },
			Checkpoint: func() *obsv.CheckpointStatus {
				st := &obsv.CheckpointStatus{
					Path:          ckptPath,
					Interval:      *ckptInterval,
					RestoredFrom:  *restoreFrom,
					RestoredCycle: sess.RestoredCycle,
				}
				if eng != nil {
					st.Count = eng.Count()
					st.LastCycle = eng.LastCycle()
					if err := eng.Err(); err != nil {
						st.Err = err.Error()
					}
				}
				return st
			},
		})
		if err := srv.Start(); err != nil {
			return fail(run.ExitUsage, err)
		}
		fmt.Println("status server listening on", srv.Addr())
	}

	// SIGINT/SIGTERM and -timeout cancel the run cooperatively: the
	// simulator stops at a cycle boundary and the output flushing
	// below still happens on the partial state.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, *timeout,
			fmt.Errorf("wall-clock timeout %v expired", *timeout))
		defer cancel()
	}

	fmt.Printf("%s\n", pipe)
	fmt.Printf("trace %s: %s %dx%d, frames %d..%v\n", *in, hdr.Label, hdr.Width, hdr.Height, *start, *end)
	var profFile *os.File
	if *cpuProfile != "" {
		if profFile, err = os.Create(*cpuProfile); err == nil {
			err = pprof.StartCPUProfile(profFile)
		}
		if err != nil {
			return fail(run.ExitUsage, err)
		}
	}
	simErr := sess.Run(ctx)
	pprof.StopCPUProfile() // no-op when none was started
	if simErr == nil {
		fmt.Printf("simulated %d cycles, %d frames, %.2f fps at %d MHz\n",
			pipe.Cycles(), len(pipe.Frames()), pipe.FPS(), cfg.ClockMHz)
	} else {
		fmt.Printf("simulation stopped after %d cycles with %d frames rendered\n",
			pipe.Cycles(), len(pipe.Frames()))
	}

	// Flush every requested output whether or not the run succeeded;
	// a partial stats CSV from a hung run is exactly what the flags
	// were for. Output problems never mask the simulation verdict.
	outOK := true
	if profFile != nil {
		if err := profFile.Close(); err != nil {
			outOK = complain(err)
		} else {
			fmt.Println("wrote", *cpuProfile)
		}
	}
	if sigWriter != nil {
		if err := sigWriter.Close(); err != nil {
			outOK = complain(err)
		} else {
			fmt.Println("wrote signal trace to", *sigOut)
		}
	}
	if *statsOut != "" {
		outOK = writeTo(*statsOut, pipe.DumpCSV) && outOK
	}
	if *summaryOut != "" {
		outOK = writeTo(*summaryOut, pipe.DumpStats) && outOK
	}
	if *framesOut != "" {
		outOK = writeFrames(*framesOut, *start, pipe.Frames()) && outOK
	}
	if *metricsOut != "" {
		outOK = writeTo(*metricsOut, bus.WriteNDJSON) && outOK
	}
	if *spansOut != "" {
		outOK = writeTo(*spansOut, col.WriteSpansNDJSON) && outOK
	}
	if *perfettoOut != "" {
		pf := obsv.NewPerfetto()
		pf.AddWindows(bus.Snapshot())
		if col != nil {
			pf.AddSpans(col.Spans())
		}
		outOK = writeTo(*perfettoOut, pf.WriteJSON) && outOK
	}
	if *blackbox != "" && pipe.Sim.Crash() != nil {
		// A resumed run must not overwrite the black box of the attempt
		// it is recovering from — that report is the evidence of what
		// failed. Divert to a numbered sibling instead.
		bbPath := *blackbox
		if restored {
			bbPath = freshPath(bbPath)
		}
		if err := pipe.Sim.Crash().WriteFile(bbPath); err != nil {
			outOK = complain(err)
		} else {
			fmt.Println("wrote crash report to", bbPath)
		}
	}
	if prof != nil {
		fmt.Println("host time per box (sampled):")
		if err := prof.WriteTable(os.Stdout); err != nil {
			outOK = complain(err)
		}
	}

	// Settle the verdict, then record it in the manifest so the output
	// directory stays self-describing even for failed runs.
	code := run.ExitOK
	switch {
	case simErr != nil:
		fmt.Fprintln(os.Stderr, "attilasim:", run.Describe(simErr))
		code = run.ExitCode(simErr)
	case *verify:
		code = runVerify(cfg, hdr, cmds, pipe)
	}
	if code == run.ExitOK && !outOK {
		code = run.ExitUsage
	}
	man.Cycles = pipe.Cycles()
	man.Frames = int64(pipe.CP.Frames())
	man.Outputs = collectOutputs(*sigOut, *statsOut, *summaryOut, *framesOut, *metricsOut, *spansOut, *perfettoOut, *blackbox, *cpuProfile)
	if eng != nil {
		man.Checkpoints = eng.Count()
		man.LastCheckpoint = eng.LastCycle()
		if err := eng.Err(); err != nil {
			complain(fmt.Errorf("checkpoint: %w", err))
		} else if eng.Count() > 0 {
			fmt.Printf("wrote %d checkpoint(s) to %s (last at cycle %d)\n", eng.Count(), ckptPath, eng.LastCycle())
		}
	}
	man.Finish(code, simErr)
	if path := manifestPath(*manifestOut, man.Outputs); path != "" {
		// On a resumed run the manifest at this path describes the
		// failed attempt; fold it into this manifest's history instead
		// of silently losing it.
		if restored {
			if prev, err := obsv.LoadManifest(path); err == nil {
				man.AbsorbPrevious(prev)
			}
		}
		if err := man.WriteFile(path); err != nil {
			complain(err)
		} else {
			fmt.Println("wrote", path)
		}
	}

	// Keep the status server reachable after the run so /crash and
	// /metrics can be inspected post-mortem — timed-out and deadlocked
	// runs are exactly when that matters. A fresh signal context lets
	// Ctrl-C cut the wait short.
	if srv != nil {
		if *httpLinger > 0 {
			lingerCtx, lingerStop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			fmt.Printf("status server lingering for %v on %s (Ctrl-C to exit)\n", *httpLinger, srv.Addr())
			select {
			case <-time.After(*httpLinger):
			case <-lingerCtx.Done():
			}
			lingerStop()
		}
		srv.Close()
	}
	return code
}

// freshPath returns path if nothing exists there, else the first
// numbered sibling (path.1, path.2, ...) that is free. Used to keep a
// failed attempt's crash report when a resumed run fails again.
func freshPath(path string) string {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return path
	}
	for i := 1; ; i++ {
		cand := fmt.Sprintf("%s.%d", path, i)
		if _, err := os.Stat(cand); os.IsNotExist(err) {
			return cand
		}
	}
}

// collectOutputs lists the output paths that were actually requested.
func collectOutputs(paths ...string) []string {
	var out []string
	for _, p := range paths {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// manifestPath resolves the -manifest flag: "none" (or empty)
// disables it, "auto" places run-manifest.json next to the first
// requested output (nowhere when the run produced no outputs), and
// anything else is used verbatim.
func manifestPath(flagVal string, outputs []string) string {
	switch flagVal {
	case "", "none":
		return ""
	case "auto":
		if len(outputs) == 0 {
			return ""
		}
		dir := filepath.Dir(outputs[0])
		if fi, err := os.Stat(outputs[0]); err == nil && fi.IsDir() {
			dir = outputs[0] // e.g. the -frames directory
		}
		return filepath.Join(dir, "run-manifest.json")
	default:
		return flagVal
	}
}

// traceErr prefixes reader failures with actionable advice keyed on
// the typed sentinel.
func traceErr(path string, err error) error {
	switch {
	case errors.Is(err, trace.ErrTruncated):
		return fmt.Errorf("%s: %w (the file is cut short — re-copy or re-capture it)", path, err)
	case errors.Is(err, trace.ErrCorrupt):
		return fmt.Errorf("%s: %w (not a valid trace — re-capture it)", path, err)
	default:
		return fmt.Errorf("%s: %w", path, err)
	}
}

func runVerify(cfg gpu.Config, hdr trace.Header, cmds []gpu.Command, pipe *gpu.Pipeline) int {
	ref := refrender.New(cfg.GPUMemBytes, hdr.Width, hdr.Height)
	if err := ref.Execute(cmds); err != nil {
		return fail(run.ExitUsage, err)
	}
	refFrames := ref.Frames()
	simFrames := pipe.Frames()
	if len(refFrames) != len(simFrames) {
		return fail(run.ExitSimFailure, fmt.Errorf("verify: frame counts %d vs %d", len(simFrames), len(refFrames)))
	}
	bad := 0
	for i := range simFrames {
		diff, maxd := gpu.DiffFrames(simFrames[i], refFrames[i])
		if diff != 0 {
			fmt.Printf("verify: frame %d differs in %d pixels (max delta %d)\n", i, diff, maxd)
			bad++
		}
	}
	if bad != 0 {
		return run.ExitSimFailure
	}
	fmt.Println("verify: all frames match the functional reference bit-exactly")
	return run.ExitOK
}

func writeFrames(dir string, start int, frames []*gpu.Frame) bool {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return complain(err)
	}
	ok := true
	for i, fr := range frames {
		path := filepath.Join(dir, fmt.Sprintf("frame%03d.ppm", start+i))
		of, err := os.Create(path)
		if err != nil {
			ok = complain(err)
			continue
		}
		err = fr.WritePPM(of)
		if cerr := of.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			ok = complain(err)
			continue
		}
		fmt.Println("wrote", path)
	}
	return ok
}

// writeTo writes one output file, reporting rather than aborting on
// failure so the remaining outputs still get flushed.
func writeTo(path string, fn func(w io.Writer) error) bool {
	f, err := os.Create(path)
	if err != nil {
		return complain(err)
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return complain(err)
	}
	fmt.Println("wrote", path)
	return true
}

// complain reports a non-fatal output error and returns false for
// accumulation into the outputs-ok flag.
func complain(err error) bool {
	fmt.Fprintln(os.Stderr, "attilasim:", err)
	return false
}

func fail(code int, err error) int {
	fmt.Fprintln(os.Stderr, "attilasim:", err)
	return code
}
