package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"attila/internal/obsv"
)

// sim runs the built attilasim in dir and returns its exit code and
// combined output.
func sim(t *testing.T, bin, dir string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &ee):
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("attilasim %v: %v", args, err)
	return 0, ""
}

// build builds the named commands of this module into dir.
func build(t *testing.T, dir string, cmds ...string) {
	t.Helper()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, c := range cmds {
		args = append(args, "attila/cmd/"+c)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
}

func sameFile(t *testing.T, dir, want, got string) {
	t.Helper()
	a, err := os.ReadFile(filepath.Join(dir, want))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, got))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("%s differs from %s", got, want)
	}
}

// The kill -> restore drill of the verify skill, at the process
// surface: a chaos-killed run leaves a checkpoint, a manifest and a
// black box; -restore over the same manifest finishes with outputs
// byte-identical to a run that never failed, keeps the black box and
// folds the failed attempt into previousRuns; a restore against a
// different frame range is refused with exit 4.
func TestKillRestoreCLI(t *testing.T) {
	dir := t.TempDir()
	build(t, dir, "attilasim", "tracegen")
	bin := filepath.Join(dir, "attilasim")
	gen := exec.Command(filepath.Join(dir, "tracegen"), "-workload", "simple", "-width", "128", "-height", "96", "-frames", "3", "-out", "m.attila")
	gen.Dir = dir
	if out, err := gen.CombinedOutput(); err != nil {
		t.Fatalf("tracegen: %v\n%s", err, out)
	}

	common := []string{"-trace", "m.attila", "-config", "baseline", "-trace-sample", "1/64"}
	with := func(extra ...string) []string { return append(append([]string(nil), common...), extra...) }

	if code, out := sim(t, bin, dir, with("-stats", "ref.csv", "-summary", "ref.txt", "-frames", "reff",
		"-spans", "ref.spans", "-metrics", "ref.ndjson", "-manifest", "none")...); code != 0 {
		t.Fatalf("clean run: exit %d\n%s", code, out)
	}

	code, out := sim(t, bin, dir, with("-chaos", "seed=5,panic@cycle=50000:CommandProcessor",
		"-checkpoint-interval", "2000", "-checkpoint", "m.ckpt", "-stats", "dead.csv",
		"-metrics", "dead.ndjson", "-blackbox", "crash.json", "-manifest", "man.json")...)
	if code != 1 {
		t.Fatalf("chaos run: exit %d, want 1\n%s", code, out)
	}
	crash, err := os.ReadFile(filepath.Join(dir, "crash.json"))
	if err != nil {
		t.Fatalf("chaos run left no black box: %v", err)
	}

	code, out = sim(t, bin, dir, with("-restore", "m.ckpt", "-stats", "res.csv", "-summary", "res.txt",
		"-frames", "resf", "-spans", "res.spans", "-metrics", "res.ndjson",
		"-blackbox", "crash.json", "-manifest", "man.json")...)
	if code != 0 {
		t.Fatalf("restore: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "restored m.ckpt: resuming at cycle ") {
		t.Errorf("restore did not report the cycle it resumed at:\n%s", out)
	}
	sameFile(t, dir, "ref.csv", "res.csv")
	sameFile(t, dir, "ref.txt", "res.txt")
	sameFile(t, dir, "ref.spans", "res.spans")
	for _, f := range []string{"frame000.ppm", "frame001.ppm", "frame002.ppm"} {
		sameFile(t, dir, filepath.Join("reff", f), filepath.Join("resf", f))
	}
	if after, err := os.ReadFile(filepath.Join(dir, "crash.json")); err != nil || !bytes.Equal(after, crash) {
		t.Errorf("the failed attempt's black box did not survive the restore (err %v)", err)
	}
	man, err := obsv.LoadManifest(filepath.Join(dir, "man.json"))
	if err != nil {
		t.Fatal(err)
	}
	if man.ExitCode != 0 || man.RestoredFrom != "m.ckpt" || man.RestoredCycle <= 0 {
		t.Errorf("manifest: exit %d restoredFrom %q restoredCycle %d", man.ExitCode, man.RestoredFrom, man.RestoredCycle)
	}
	if len(man.Previous) != 1 || man.Previous[0].ExitCode != 1 || man.Previous[0].Error == "" {
		t.Errorf("manifest previousRuns = %+v, want the one failed attempt", man.Previous)
	}

	code, out = sim(t, bin, dir, with("-restore", "m.ckpt", "-end", "2", "-manifest", "none")...)
	if code != 4 || !strings.Contains(out, "checkpoint is for workload") {
		t.Errorf("restore against another frame range: exit %d, want 4 and a workload mismatch\n%s", code, out)
	}
}

// Every flag row of README.md (a table row starting | `-flag) names a
// flag that attilasim or experiments prints under -h: a removed flag
// takes its row with it.
func TestReadmeFlagsExist(t *testing.T) {
	dir := t.TempDir()
	build(t, dir, "attilasim", "experiments")
	var usage strings.Builder
	for _, bin := range []string{"attilasim", "experiments"} {
		// -h prints the flags and exits 0 (2 from older flag packages).
		out, _ := exec.Command(filepath.Join(dir, bin), "-h").CombinedOutput()
		usage.Write(out)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile("(?m)^\\| `-([A-Za-z0-9-]+)").FindAllStringSubmatch(string(readme), -1)
	if len(rows) == 0 {
		t.Fatal("README.md has no flag rows")
	}
	for _, row := range rows {
		if !regexp.MustCompile(`(?m)^\s+-` + regexp.QuoteMeta(row[1]) + `(\s|$)`).MatchString(usage.String()) {
			t.Errorf("README.md documents -%s, which neither attilasim nor experiments has", row[1])
		}
	}
}
