// Command bench is the repository's benchmark: six named workloads,
// host-speed end-to-end metrics, a per-layer ladder and a traced run.
// It measures every layer from outside, through exported functions, and
// changes nothing in the simulator. See README.md in this directory.
//
//	go run ./bench                         all workloads, both runs, a table
//	go run ./bench -workload W -trace 0    one workload; last line is the result
//	go run ./bench -compare A.json B.json  two suite outputs against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"attila/internal/obsv"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 10

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// host says where a number came from; every output carries it.
type host struct {
	CPUsOnline int    `json:"cpus_online"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"reps,omitempty"` // of one run; the suite's per-metric n says more
}

func describeHost(e *env) host {
	h := host{
		CPUsOnline: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       "100",
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		GitCommit:  obsv.GitDescribe(),
		Seed:       e.seed,
	}
	if v := os.Getenv("GOGC"); v != "" {
		h.GOGC = v
	}
	if h.GitCommit == "" {
		h.GitCommit = "unknown" // built outside a git checkout
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func (h host) String() string {
	s := fmt.Sprintf("cpus_online=%d GOMAXPROCS=%d GOGC=%s %s cpu=%q commit=%s seed=%d",
		h.CPUsOnline, h.GOMAXPROCS, h.GOGC, h.GoVersion, h.CPUModel, h.GitCommit, h.Seed)
	if h.Reps > 0 {
		s += fmt.Sprintf(" reps=%d", h.Reps)
	}
	return s
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload and print its result as the last line; empty runs them all")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", defaultSeconds, "how long the untraced reps measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for spans.json, layer tables, bench.json and temporary job trees")
	smoke := fs.Bool("smoke", false, "1 rep, 64x48x1 scenes, kernels at 1/100 length")
	runs := fs.Int("runs", 1, "suite mode: untraced runs per workload, pooled into one set of samples")
	compare := fs.Bool("compare", false, "compare two suite outputs: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	e := &env{seed: *seed, seconds: *seconds, smoke: *smoke, out: *out}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			logf("-compare needs two files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case *name != "":
		def, ok := findWorkload(*name)
		if !ok {
			logf("unknown workload %q", *name)
			return 2
		}
		return runOne(e, def, *trace == 1)
	}
	return runSuite(e, *runs)
}

// runOne is the contract's surface: one workload, one run, and as the
// last line of standard output one JSON object with exactly the keys
// correct, attempted, failed and metrics.
func runOne(e *env, def workloadDef, traced bool) int {
	o, err := measure(e, def, traced)
	if err != nil {
		logf("%v", err)
		return 1
	}
	defs := endToEnd
	file := "e2e.json"
	if traced {
		defs, file = perLayer, "layers.json"
	}
	if err := writeJSON(filepath.Join(e.out, def.Name, file), o); err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Printf("# %s trace=%t host: %s\n", def.Name, traced, o.Host)
	fmt.Print(metricTable(o.Metrics, defs))
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, o.Metrics})
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(line))
	if !o.Correct {
		logf("%s: %d of %d operations failed the correctness gate", def.Name, o.Failed, o.Attempted)
		return 1
	}
	return 0
}

// suiteWorkload is one workload's row of bench.json.
type suiteWorkload struct {
	Skipped   string                `json:"skipped,omitempty"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	FailShare float64               `json:"fail_share"`
	EndToEnd  map[string]suiteValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric     `json:"per_layer,omitempty"`
}

type suiteValue struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

type suiteReport struct {
	Host      host                      `json:"host"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

// runSuite re-executes this binary once per workload and run, so GC
// state and peak RSS are per workload and order does not matter, then
// prints every metric by name and writes bench.json.
func runSuite(e *env, runs int) int {
	exe, err := os.Executable()
	if err != nil {
		logf("%v", err)
		return 1
	}
	rep := suiteReport{Host: describeHost(e), Workloads: map[string]*suiteWorkload{}}
	fmt.Printf("# host: %s\n", rep.Host)
	status := 0
	for _, def := range workloads {
		sw := &suiteWorkload{EndToEnd: map[string]suiteValue{}}
		rep.Workloads[def.Name] = sw
		if cpus := runtime.NumCPU(); cpus < def.Threads {
			sw.Skipped = fmt.Sprintf("needs %d CPUs, %d online", def.Threads, cpus)
			logf("WARNING: SKIPPED %s: %s", def.Name, sw.Skipped)
			continue
		}
		for r := 0; r < runs; r++ {
			o, err := runChild(exe, e, def, false)
			if err != nil {
				logf("%v", err)
				status = 1
				break
			}
			sw.Attempted += o.Attempted
			sw.Failed += o.Failed
			for name, v := range o.Samples {
				cur := sw.EndToEnd[name]
				cur.Unit = o.Metrics[name].Unit
				cur.Samples = append(cur.Samples, v...)
				sw.EndToEnd[name] = cur
			}
		}
		for name, v := range sw.EndToEnd {
			v.Median, v.N = median(v.Samples), len(v.Samples)
			sw.EndToEnd[name] = v
		}
		if o, err := runChild(exe, e, def, true); err != nil {
			logf("%v", err)
			status = 1
		} else {
			sw.Attempted += o.Attempted
			sw.Failed += o.Failed
			sw.PerLayer = o.Metrics
		}
		if sw.Attempted > 0 {
			sw.FailShare = float64(sw.Failed) / float64(sw.Attempted)
		}
		if sw.Failed > 0 {
			status = 1
		}
		printSuiteWorkload(def.Name, sw)
	}
	path := filepath.Join(e.out, "bench.json")
	if err := writeJSON(path, rep); err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Printf("# wrote %s\n", path)
	return status
}

func printSuiteWorkload(name string, sw *suiteWorkload) {
	fmt.Printf("\n== %s  fail_share=%g (%d of %d)\n", name, sw.FailShare, sw.Failed, sw.Attempted)
	for _, d := range endToEnd {
		if v, ok := sw.EndToEnd[d.Name]; ok {
			fmt.Printf("%-36s %16.6g %-10s median n=%d spread=%.1f%% bound=%.0f%%\n",
				d.Name, v.Median, v.Unit, v.N, 100*spread(v.Samples), 100*d.Bound)
		}
	}
	fmt.Print(metricTable(sw.PerLayer, perLayer))
}

// runChild runs one workload in a child process and decodes the result
// it left in the output directory.
func runChild(exe string, e *env, def workloadDef, traced bool) (*outcome, error) {
	traceArg, file := "0", "e2e.json"
	if traced {
		traceArg, file = "1", "layers.json"
	}
	args := []string{"-workload", def.Name, "-seed", strconv.FormatInt(e.seed, 10),
		"-seconds", strconv.FormatFloat(e.seconds, 'g', -1, 64), "-trace", traceArg, "-out", e.out}
	if e.smoke {
		args = append(args, "-smoke")
	}
	result := filepath.Join(e.out, def.Name, file)
	os.Remove(result) // never read a previous run's result for this one
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr // the suite prints its own table
	runErr := cmd.Run()                            // waits for the child to end
	data, err := os.ReadFile(result)
	if err != nil {
		return nil, fmt.Errorf("%s trace=%s: no result (%v; child: %v)", def.Name, traceArg, err, runErr)
	}
	var o outcome
	if err := json.Unmarshal(data, &o); err != nil {
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	if runErr != nil && o.Failed == 0 {
		return nil, fmt.Errorf("%s trace=%s: %v", def.Name, traceArg, runErr)
	}
	return &o, nil
}
