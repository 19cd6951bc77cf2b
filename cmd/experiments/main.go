// Command experiments reproduces the paper's tables and figures (§5
// and the §2.2 scaling studies) and prints the same rows/series the
// paper reports. See EXPERIMENTS.md for recorded outcomes.
//
// Usage:
//
//	experiments -exp fig7 [-width 192 -height 144 -frames 2]
//	experiments -exp all -out results/
//
// Beyond the one-shot experiments it also fronts the supervised job
// server (internal/jobd):
//
//	experiments -serve :6060 -job-out results/          long-lived service
//	experiments -sweep sweep.json -job-out results/     one-shot supervised sweep
//
// Both modes survive SIGTERM by draining: in-flight jobs checkpoint,
// stamp their manifests, and persist resumable; re-invoking over the
// same -job-out resumes them to byte-identical results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"attila/internal/chaos"
	"attila/internal/experiments"
	"attila/internal/gpu"
	"attila/internal/jobd"
	"attila/internal/obsv"
	"attila/internal/obsv/trace"
	"attila/internal/run"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|table2|fig7|fig8|fig9|fig10|scaling|embedded|ablation|all")
	width := flag.Int("width", 192, "render width")
	height := flag.Int("height", 144, "render height")
	frames := flag.Int("frames", 2, "frames per trace")
	aniso := flag.Int("aniso", 8, "max anisotropy (paper: 8)")
	out := flag.String("out", "", "directory for PPM frame dumps (fig10)")
	watchdog := flag.Int64("watchdog", 0, "abort a hung run with a deadlock report after this many cycles without progress (0 = off)")
	timeout := flag.Duration("timeout", 0, "wall-clock limit across all experiments (0 = none)")
	profileBoxes := flag.Bool("profile-boxes", false, "attribute host time to boxes across all runs (sampled; prints a ranked table)")
	manifestOut := flag.String("manifest", "", "write a sweep manifest JSON here (args, outcome)")

	// Job-server mode (internal/jobd).
	serveAddr := flag.String("serve", "", "serve the supervised job API (and status server) on this address, e.g. :6060")
	sweepFile := flag.String("sweep", "", "run this sweep spec (JSON) as a one-shot supervised sweep and exit")
	jobOut := flag.String("job-out", "", "output directory for -serve/-sweep (stats CSVs, manifests, state file, checkpoints)")
	jobWorkers := flag.Int("job-workers", 0, "worker pool size for -serve/-sweep (0 = half the CPUs)")
	queueLimit := flag.Int("queue-limit", 0, "admission control: reject submits past this many queued jobs with 429 (0 = default 256, negative = unlimited)")
	preemptCycles := flag.Int64("preempt-cycles", 0, "fairness quantum: checkpoint-and-requeue a job after this many cycles while others wait (0 = off)")
	ckptInterval := flag.Int64("checkpoint-interval", 0, "checkpoint -serve/-sweep jobs at this cycle cadence so retries resume instead of replaying (0 = off)")
	jobRetries := flag.Int("job-retries", 0, "default per-job retry budget for -serve/-sweep (0 = default 2, negative = fail fast)")
	retryBackoff := flag.Duration("retry-backoff", 100*time.Millisecond, "wait before a -serve/-sweep job's first retry; doubles on each further retry")
	retryBackoffMax := flag.Duration("retry-backoff-max", run.DefaultRetryBackoffMax, "cap for the doubling -serve/-sweep retry backoff (jitter is seeded)")
	jobTimeout := flag.Duration("job-timeout", 0, "default per-attempt wall-clock limit for -serve/-sweep (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "grace period for SIGTERM drain before in-flight jobs are hard-stopped onto their last checkpoint")
	chaosServer := flag.String("chaos-server", "", "jobd-level fault plan: seed=N,kill=JOB@CYCLE,panic=JOB@CYCLE[:BOX],yank=JOB (see internal/chaos)")
	traceSample := flag.String("trace-sample", "", "request tracing for -serve/-sweep jobs: keep 1/N spans (e.g. 1/64; off by default)")
	traceSeed := flag.Uint64("trace-seed", 1, "seed for the deterministic span sampler")

	flag.Parse()

	if *serveAddr != "" || *sweepFile != "" {
		rate, err := trace.ParseSampleRate(*traceSample)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(4)
		}
		os.Exit(runJobMode(jobModeConfig{
			serveAddr: *serveAddr, sweepFile: *sweepFile, outDir: *jobOut,
			workers: *jobWorkers, queueLimit: *queueLimit,
			preemptCycles: *preemptCycles, retries: *jobRetries,
			retryBackoff: *retryBackoff, retryBackoffMax: *retryBackoffMax,
			checkpointInterval: *ckptInterval, watchdog: *watchdog,
			jobTimeout: *jobTimeout, drainTimeout: *drainTimeout,
			chaosServer: *chaosServer,
			traceSample: rate, traceSeed: *traceSeed,
		}))
	}

	// SIGINT/SIGTERM and -timeout cancel the in-flight simulation at
	// a cycle boundary; completed experiments' output has already been
	// printed by then.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, *timeout,
			fmt.Errorf("wall-clock timeout %v expired", *timeout))
		defer cancel()
	}

	p := experiments.DefaultRunParams()
	p.Width, p.Height, p.Frames, p.Aniso = *width, *height, *frames, *aniso
	p.WatchdogWindow = *watchdog
	p.Ctx = ctx
	var prof *obsv.Profiler
	if *profileBoxes {
		prof = obsv.NewProfiler()
		p.Profiler = prof
	}

	// A failure stops the sweep but not the program: the manifest below
	// still records what happened before the process exits with the
	// failing run's code.
	man := obsv.NewManifest("experiments", flag.CommandLine)
	exitCode := 0
	var firstErr error
	experiment := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if exitCode != 0 {
			return
		}
		fmt.Printf("== %s ==\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, run.Describe(err))
			firstErr = err
			exitCode = run.ExitCode(err)
			return
		}
		fmt.Println()
	}

	experiment("table1", func() error {
		experiments.Table1(os.Stdout, gpu.Baseline())
		return nil
	})
	experiment("table2", func() error {
		experiments.Table2(os.Stdout, gpu.Baseline())
		return nil
	})
	experiment("fig7", func() error {
		rows, err := experiments.Fig7(p, os.Stdout)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %-8s %-4s %12s %8s %12s\n", "trace", "sched", "TUs", "cycles", "fps", "degradation")
		for _, r := range rows {
			fmt.Printf("%-8s %-8s %-4d %12d %8.2f %+11.1f%%\n",
				r.Workload, r.Mode, r.TUs, r.Cycles, r.FPS, r.Degradation)
		}
		return nil
	})
	experiment("fig8", func() error {
		rows, series, err := experiments.Fig8(p, os.Stdout)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %-4s %10s %14s %12s\n", "trace", "TUs", "hit rate", "tex bytes", "bytes/cycle")
		for _, r := range rows {
			fmt.Printf("%-8s %-4d %9.2f%% %14.0f %12.3f\n",
				r.Workload, r.TUs, r.HitRate*100, r.TexMemBytes, r.BytesPerCycle)
		}
		if series != nil {
			fmt.Println("\ntexture cache hit rate per 10K cycles (doom3, 3 TUs):")
			for i := range series.Cycle {
				fmt.Printf("  %10d %6.2f%%\n", series.Cycle[i], series.HitRate[i]*100)
			}
		}
		return nil
	})
	experiment("fig9", func() error {
		series, err := experiments.Fig9(p, os.Stdout)
		if err != nil {
			return err
		}
		for _, s := range series {
			fmt.Printf("\n%s: avg shader %.0f%%, texture %.0f%%, ROP %.0f%%, memory %.0f%%\n",
				s.Config.Label, s.AvgShader*100, s.AvgTexture*100, s.AvgROP*100, s.AvgMemory*100)
			fmt.Printf("  %10s %8s %8s %8s %8s\n", "cycle", "shader", "texture", "rop", "memory")
			for i := range s.Cycle {
				fmt.Printf("  %10d %7.0f%% %7.0f%% %7.0f%% %7.0f%%\n",
					s.Cycle[i], s.Shader[i]*100, s.Texture[i]*100, s.ROP[i]*100, s.Memory[i]*100)
			}
		}
		return nil
	})
	experiment("fig10", func() error {
		res, err := experiments.Fig10(p)
		if err != nil {
			return err
		}
		fmt.Printf("simulator vs reference: %d differing pixels (max channel delta %d)\n",
			res.DiffPixels, res.MaxDelta)
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			for _, d := range []struct {
				path  string
				frame *gpu.Frame
			}{
				{filepath.Join(*out, "fig10-sim.ppm"), res.SimFrame},
				{filepath.Join(*out, "fig10-ref.ppm"), res.RefFrame},
			} {
				f, err := os.Create(d.path)
				if err != nil {
					return err
				}
				if err := d.frame.WritePPM(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", d.path)
			}
		}
		return nil
	})
	experiment("scaling", func() error {
		rows, err := experiments.Scaling(p, os.Stdout)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %-8s %12s %8s\n", "config", "model", "cycles", "fps")
		for _, r := range rows {
			model := "split"
			if r.Unified {
				model = "unified"
			}
			fmt.Printf("%-14s %-8s %12d %8.2f\n", r.Config, model, r.Cycles, r.FPS)
		}
		return nil
	})
	experiment("embedded", func() error {
		row, err := experiments.Embedded(p)
		if err != nil {
			return err
		}
		fmt.Printf("embedded GPU on %s: %d cycles, %.2f fps at %d MHz\n",
			row.Workload, row.Cycles, row.FPS, gpu.Embedded().ClockMHz)
		return nil
	})
	experiment("ablation", func() error {
		rows, err := experiments.Ablation(p, os.Stdout)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %12s %8s  %s\n", "variant", "cycles", "vs base", "detail")
		for _, r := range rows {
			fmt.Printf("%-16s %12d %+7.1f%%  %s\n", r.Name, r.Cycles, r.RelPct, r.Details)
		}
		return nil
	})

	if prof != nil {
		fmt.Println("== host time per box (sampled, aggregated over all runs) ==")
		if err := prof.WriteTable(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	if *manifestOut != "" {
		man.Finish(exitCode, firstErr)
		if err := man.WriteFile(*manifestOut); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		} else {
			fmt.Println("wrote", *manifestOut)
		}
	}
	os.Exit(exitCode)
}

// jobModeConfig carries the -serve/-sweep flags.
type jobModeConfig struct {
	serveAddr, sweepFile, outDir string
	workers, queueLimit, retries int
	preemptCycles, watchdog      int64
	checkpointInterval           int64
	retryBackoff                 time.Duration
	retryBackoffMax              time.Duration
	jobTimeout                   time.Duration
	drainTimeout                 time.Duration
	chaosServer                  string
	traceSample, traceSeed       uint64
}

// runJobMode runs the supervised job server, either as a long-lived
// service (-serve) or as a one-shot sweep (-sweep). Returns the
// process exit code.
func runJobMode(c jobModeConfig) int {
	if c.outDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -serve/-sweep need -job-out DIR")
		return 4
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)
	opts := jobd.Options{
		OutDir:             c.outDir,
		Workers:            c.workers,
		QueueLimit:         c.queueLimit,
		Retries:            c.retries,
		RetryBackoff:       c.retryBackoff,
		RetryBackoffMax:    c.retryBackoffMax,
		CheckpointInterval: c.checkpointInterval,
		PreemptCycles:      c.preemptCycles,
		WatchdogWindow:     c.watchdog,
		JobTimeout:         c.jobTimeout,
		TraceSample:        c.traceSample,
		TraceSeed:          c.traceSeed,
		Logf:               logger.Printf,
	}
	if c.chaosServer != "" {
		plan, err := chaos.ParseServer(c.chaosServer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 4
		}
		opts.Chaos = plan
		fmt.Println("chaos-server:", plan)
	}

	// SIGINT/SIGTERM trigger the graceful drain in both modes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if c.sweepFile != "" {
		spec, err := jobd.ParseSweepFile(c.sweepFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 4
		}
		st, err := jobd.RunSweep(ctx, opts, spec)
		for _, j := range st.Jobs {
			fmt.Printf("%-24s %-10s attempts=%d cycles=%d\n", j.Name, j.State, j.Attempts, j.Cycles)
		}
		switch {
		case err == nil:
			fmt.Printf("sweep %s: %d jobs done; summary at %s\n",
				st.Name, st.Done, filepath.Join(c.outDir, st.Name+"-summary.txt"))
			return 0
		case errors.Is(err, context.Canceled):
			fmt.Fprintf(os.Stderr, "experiments: sweep interrupted; state saved, re-run to resume\n")
			return 3
		default:
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
	}

	srv := jobd.New(opts)
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	status := obsv.NewServer(c.serveAddr, obsv.ServerOptions{
		Jobs:  srv.Handler(),
		Ready: func() bool { return !srv.Draining() },
	})
	if err := status.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	logger.Printf("jobd: serving on %s (POST /sweeps to submit; SIGTERM drains)", status.Addr())
	<-ctx.Done()
	logger.Printf("jobd: signal received, draining (grace %v)", c.drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), c.drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
	status.Close()
	srv.Close()
	logger.Printf("jobd: drained; state saved, restart to resume")
	return 0
}
