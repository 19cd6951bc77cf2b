// Command experiments reproduces the paper's tables and figures (§5
// and the §2.2 scaling studies) and prints the same rows/series the
// paper reports. See EXPERIMENTS.md for recorded outcomes.
//
// Usage:
//
//	experiments -exp fig7 [-width 192 -height 144 -frames 2]
//	experiments -exp all -out results/
//
// It also runs a sweep spec under jobd's supervision (internal/jobd):
//
//	experiments -sweep sweep.json -job-out results/
//
// A sweep survives SIGTERM by draining: in-flight jobs checkpoint,
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

	"attila/internal/chaos"
	"attila/internal/experiments"
	"attila/internal/gpu"
	"attila/internal/jobd"
	"attila/internal/obsv"
	"attila/internal/obsv/trace"
	"attila/internal/run"
)

func main() {
	p := experiments.DefaultRunParams()
	exp := flag.String("exp", "all", "experiment: table1|table2|fig7|fig8|fig9|fig10|scaling|embedded|ablation|all")
	flag.IntVar(&p.Width, "width", p.Width, "render width")
	flag.IntVar(&p.Height, "height", p.Height, "render height")
	flag.IntVar(&p.Frames, "frames", p.Frames, "frames per trace")
	flag.IntVar(&p.Aniso, "aniso", p.Aniso, "max anisotropy (paper: 8)")
	out := flag.String("out", "", "directory for PPM frame dumps (fig10)")
	timeout := flag.Duration("timeout", 0, "wall-clock limit across all experiments (0 = none)")
	profileBoxes := flag.Bool("profile-boxes", false, "attribute host time to boxes across all runs (sampled; prints a ranked table)")
	manifestOut := flag.String("manifest", "", "write a sweep manifest JSON here (args, outcome)")

	// Sweep mode (internal/jobd): the flags fill its Options; -watchdog
	// arms the -exp runs too.
	var o jobd.Options
	flag.Int64Var(&o.WatchdogWindow, "watchdog", 50_000_000, "abort a hung run with a deadlock report after this many cycles without progress (<= 0 = off)")
	sweepFile := flag.String("sweep", "", "run this sweep spec (JSON) as a supervised sweep and exit")
	flag.StringVar(&o.OutDir, "job-out", "", "output directory for -sweep (stats CSVs, manifests, span dumps, crash reports, checkpoints)")
	flag.IntVar(&o.Workers, "job-workers", 0, "worker pool size for -sweep (0 = half the CPUs)")
	flag.Int64Var(&o.CheckpointInterval, "checkpoint-interval", 0, "checkpoint -sweep jobs at this cycle cadence so retries resume instead of replaying (<= 0 = default 100000; jobs always checkpoint)")
	flag.IntVar(&o.Retries, "job-retries", 0, "retry budget of each -sweep job, retried at once (0 = default 2, negative = fail fast)")
	flag.DurationVar(&o.JobTimeout, "job-timeout", 0, "per-attempt wall-clock limit of each -sweep job (0 = none)")
	chaosServer := flag.String("chaos-server", "", "jobd-level fault plan: seed=N,kill=JOB@CYCLE,panic=JOB@CYCLE[:BOX],yank=JOB (see internal/chaos)")
	traceSample := flag.String("trace-sample", "", "request tracing for -sweep jobs: keep 1/N spans, written to <job>-spans.ndjson (e.g. 1/64; off by default)")
	flag.Uint64Var(&o.TraceSeed, "trace-seed", 1, "seed for the deterministic span sampler")

	flag.Parse()

	if *sweepFile != "" {
		os.Exit(runSweep(o, *sweepFile, *traceSample, *chaosServer))
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

	p.WatchdogWindow = max(o.WatchdogWindow, 0)
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

// runSweep runs the sweep spec in sweepFile under jobd's supervision
// and returns the process exit code.
func runSweep(o jobd.Options, sweepFile, traceSample, chaosServer string) int {
	usage := func(err error) int {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return run.ExitUsage
	}
	rate, err := trace.ParseSampleRate(traceSample)
	if err != nil {
		return usage(err)
	}
	if o.OutDir == "" {
		return usage(errors.New("-sweep needs -job-out DIR"))
	}
	o.TraceSample, o.Logf = rate, log.New(os.Stderr, "", log.LstdFlags).Printf
	if o.WatchdogWindow <= 0 {
		o.WatchdogWindow = -1 // jobd reads 0 as its default
	}
	if chaosServer != "" {
		if o.Chaos, err = chaos.ParseServer(chaosServer); err != nil {
			return usage(err)
		}
		fmt.Println("chaos-server:", o.Chaos)
	}
	spec, err := jobd.ParseSweepFile(sweepFile)
	if err != nil {
		return usage(err)
	}

	// SIGINT/SIGTERM trigger the graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st, err := jobd.RunSweep(ctx, o, spec)
	for _, j := range st.Jobs {
		fmt.Printf("%-24s %-10s attempts=%d cycles=%d\n", j.Name, j.State, j.Attempts, j.Cycles)
	}
	switch {
	case err == nil:
		fmt.Printf("sweep %s: %d jobs done; summary at %s\n",
			st.Name, st.Done, filepath.Join(o.OutDir, st.Name+"-summary.txt"))
		return run.ExitOK
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "experiments: sweep interrupted; jobs parked, re-run to resume\n")
		return run.ExitInterrupted
	default:
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return run.ExitSimFailure
	}
}
