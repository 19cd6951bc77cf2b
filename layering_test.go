package attila_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// One way to assemble a run: internal/run is the only non-test code
// that builds a pipeline and hangs observers on it (internal/gpu
// defines the seams, bench/ measures them bare, attila.go is the public
// facade over gpu.New). This test reads every non-test Go file of the
// module and fails if a fourth assembler grows back, if jobd reaches
// up into experiments again, or if chkpt picks up a simulator import.
// internal/core/coretest is test code (only _test.go files may import
// it): its oracle installs the pass-everything gate.
func TestOneRunAssembler(t *testing.T) {
	// Calls that wire a run, by selector name; only the listed
	// directories may make them.
	wiring := map[string]bool{
		"EnableCheckpoints": true, "RestoreCheckpoint": true, "ResumeContext": true,
		"EnableSpanTracing": true, "SetClockGate": true, "SetFault": true,
	}
	mayWire := func(path string) bool {
		return under(path, "internal/gpu") || under(path, "internal/run") || under(path, "bench") ||
			under(path, "internal/core/coretest")
	}
	mayBuild := func(path string) bool {
		return under(path, "internal/run") || under(path, "bench") || path == "attila.go"
	}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		path = filepath.ToSlash(path)
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, imp := range file.Imports {
			target, _ := strconv.Unquote(imp.Path.Value)
			if under(path, "internal/jobd") && target == "attila/internal/experiments" {
				t.Errorf("%s imports %s: the dependency runs the other way (shared pieces live in internal/run)", path, target)
			}
			if target == "attila/internal/core/coretest" {
				t.Errorf("%s imports %s, a test helper, outside a _test.go file", path, target)
			}
			if under(path, "internal/chkpt") && strings.HasPrefix(target, "attila/") && target != "attila/internal/fsatomic" {
				t.Errorf("%s imports %s: chkpt stays importable by every layer (standard library and fsatomic only)", path, target)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, _ := sel.X.(*ast.Ident)
			at := fset.Position(call.Pos())
			switch {
			case wiring[sel.Sel.Name] && !mayWire(path):
				t.Errorf("%s: %s() wires a run outside internal/run", at, sel.Sel.Name)
			case pkg != nil && pkg.Name == "chaos" && sel.Sel.Name == "NewInjector" && !mayWire(path):
				t.Errorf("%s: chaos.NewInjector() wires a run outside internal/run", at)
			case pkg != nil && pkg.Name == "gpu" && sel.Sel.Name == "New" && !mayBuild(path):
				t.Errorf("%s: gpu.New() builds a pipeline outside internal/run", at)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Tables 1 and 2 are reproduced "by construction": they print the
// configuration the model runs with. That holds only for fields the
// model reads, by non-test code in internal/gpu or internal/mem other
// than config.go (which declares, presets and validates them). unread
// lists the printed fields no box reads; a listed field that becomes
// read, or stops being printed, fails too, so the list only shrinks.
func TestTablesPrintOnlyModelledFields(t *testing.T) {
	unread := map[string]bool{"StreamerQueue": true, "ROPFragsPerCycle": true, "FastClear": true}

	fset := token.NewFileSet()
	tables, err := parser.ParseFile(fset, "internal/experiments/tables.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	printed := make(map[string]bool)
	ast.Inspect(tables, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "cfg" {
				printed[sel.Sel.Name] = true
			}
		}
		return true
	})
	if len(printed) == 0 {
		t.Fatal("found no cfg.X selectors in internal/experiments/tables.go")
	}

	// read collects every selector name the model uses other than as an
	// assignment target.
	read := make(map[string]bool)
	for _, dir := range []string{"internal/gpu", "internal/mem"} {
		paths, err := filepath.Glob(dir + "/*.go")
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") || filepath.Base(path) == "config.go" {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			written := make(map[ast.Expr]bool)
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						written[lhs] = true
					}
				case *ast.SelectorExpr:
					if !written[n] {
						read[n.Sel.Name] = true
					}
				}
				return true
			})
		}
	}

	for name := range printed {
		switch {
		case !read[name] && !unread[name]:
			t.Errorf("Tables 1/2 print gpu.Config.%s, which no box in internal/gpu or internal/mem reads", name)
		case read[name] && unread[name]:
			t.Errorf("gpu.Config.%s is read by the model now: drop it from this test's unread list", name)
		}
	}
	for name := range unread {
		if !printed[name] {
			t.Errorf("gpu.Config.%s is no longer printed: drop it from this test's unread list", name)
		}
	}
}

// One introspection surface: a box describes itself to the framework
// through core.Introspector alone. This test lists internal/core's
// exported interfaces exactly, so a new reporter interface beside it
// takes a deliberate edit here.
func TestCoreInterfaces(t *testing.T) {
	want := []string{"Box", "ClockGate", "ClockObserver", "Dynamic", "Introspector", "Stat", "Tracer"}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "internal/core", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gen, ok := decl.(*ast.GenDecl)
				if !ok || gen.Tok != token.TYPE {
					continue
				}
				for _, spec := range gen.Specs {
					ts := spec.(*ast.TypeSpec)
					if _, ok := ts.Type.(*ast.InterfaceType); ok && ts.Name.IsExported() {
						got = append(got, ts.Name.Name)
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("internal/core exports interfaces %v, want exactly %v", got, want)
	}
}

// DESIGN.md names the tests that hold each mechanism and the files that
// implement it, and the rest of the tree cites its sections; a name,
// path or heading that no longer exists makes the text stale without
// anything failing. So:
//   - every backticked Test*, Benchmark* or Fuzz* name must be a
//     function some _test.go defines (followed by "_" or "*" it is a
//     prefix of one, by "/sub" a subtest of it);
//   - every backticked path under internal/, cmd/, bench/ or testdata/
//     must exist (a glob must match; a trailing ".Ident" names a
//     declaration in it);
//   - every numbered section ("## N. ...") must name a Test* or Fuzz*
//     function: the test that holds its mechanism;
//   - a `DESIGN §N` or `§N "Title"` citation in a Go file, in DESIGN.md
//     itself or in the documents listed below must name a numbered
//     section, and its Title a heading of that section. A bare §N with
//     no DESIGN before it cites the paper. CHANGES.md is history, and
//     cites what has since gone;
//   - every alternative of a Makefile -run, -bench or -fuzz pattern
//     must match a Test*, Benchmark* or Fuzz* function defined in the
//     package directory its line tests: go test passes a pattern that
//     matches nothing, so a renamed test would silently drop out of
//     `make check`. '^$' (no tests, only benchmarks or fuzzing) is the
//     one pattern meant to match nothing.
func TestDesignReferencesExist(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design = regexp.MustCompile("(?s)```.*?```").ReplaceAll(design, nil) // code blocks
	sections := map[string]map[string]bool{}                             // number -> its headings
	sectionText := map[string]string{}
	numbered := regexp.MustCompile(`^## (\d+)\. `)
	heading := regexp.MustCompile(`^###+ (.+)$`)
	var current string
	for _, line := range strings.Split(string(design), "\n") {
		if m := numbered.FindStringSubmatch(line); m != nil {
			current = m[1]
			sections[current] = map[string]bool{}
		} else if m := heading.FindStringSubmatch(line); m != nil && current != "" {
			title, _, _ := strings.Cut(m[1], " (") // a citation may leave out a parenthesis
			sections[current][m[1]] = true
			sections[current][title] = true
		}
		sectionText[current] += line + "\n"
	}
	names := regexp.MustCompile("`(?:Test|Fuzz)\\w+")
	for n := range sections {
		if !names.MatchString(sectionText[n]) {
			t.Errorf("DESIGN.md §%s names no test that holds it", n)
		}
	}

	// A citation may wrap onto the next line of a comment or paragraph.
	wrap := regexp.MustCompile(`\s*\n\s*(?:(?://|#)\s*)?`)
	citation := regexp.MustCompile(`(DESIGN(?:\.md)? )?§(\d+)(?: "([^"]+)")?`)
	checkCitations := func(file string, text []byte) {
		for _, m := range citation.FindAllSubmatch(wrap.ReplaceAll(text, []byte(" ")), -1) {
			n, title := string(m[2]), string(m[3])
			if len(m[1]) == 0 && title == "" {
				continue
			}
			switch headings, ok := sections[n]; {
			case !ok:
				t.Errorf("%s cites DESIGN §%s, which DESIGN.md does not have", file, n)
			case title != "" && !headings[title]:
				t.Errorf("%s cites DESIGN §%s %q, which is no heading of that section", file, n, title)
			}
		}
	}
	checkCitations("DESIGN.md", design)
	for _, doc := range []string{"README.md", "ROADMAP.md", "EXPERIMENTS.md", "Makefile", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkCitations(doc, text)
	}

	defined := map[string]bool{}
	definedIn := map[string][]string{} // package directory -> its test functions
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		checkCitations(path, src)
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				defined[string(m[1])] = true
				definedIn[filepath.Dir(path)] = append(definedIn[filepath.Dir(path)], string(m[1]))
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(n string, prefix bool) bool {
		for d := range defined {
			if d == n || prefix && strings.HasPrefix(d, n) {
				return true
			}
		}
		return false
	}
	name := regexp.MustCompile(`^((?:Test|Benchmark|Fuzz)\w*?)(_?)(\*?)(?:\W|$)`)
	path := regexp.MustCompile(`^(?:internal|cmd|bench|testdata)/\S*`)
	selector := regexp.MustCompile(`\.[A-Z]\w*$`)
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllSubmatch(design, -1) {
		ref := strings.Join(strings.Fields(string(m[1])), " ")
		if n := name.FindStringSubmatch(ref); n != nil && !exists(n[1], n[2]+n[3] != "") {
			t.Errorf("DESIGN.md cites %s, which no _test.go defines", ref)
		}
		if p := strings.TrimSuffix(path.FindString(ref), "/"); p != "" {
			if matches, _ := filepath.Glob(p); len(matches) == 0 {
				if matches, _ = filepath.Glob(selector.ReplaceAllString(p, "")); len(matches) == 0 {
					t.Errorf("DESIGN.md cites %s, which does not exist", ref)
				}
			}
		}
	}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	pattern := regexp.MustCompile(`-(?:run|bench|fuzz)[ =]('[^']*'|\S+)`)
	for _, line := range strings.Split(strings.ReplaceAll(string(makefile), "$$", "$"), "\n") {
		var dirs []string
		for _, f := range strings.Fields(line) {
			if f == "." || strings.HasPrefix(f, "./") {
				dirs = append(dirs, filepath.Clean(f))
			}
		}
		for _, m := range pattern.FindAllStringSubmatch(line, -1) {
			pat := strings.Trim(m[1], "'")
			if pat == "^$" {
				continue
			}
			for _, alt := range alternatives(pat) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile pattern %q: %v", pat, err)
					continue
				}
				for _, dir := range dirs {
					if !slices.ContainsFunc(definedIn[dir], re.MatchString) {
						t.Errorf("Makefile runs %q in ./%s, which defines no test it matches", alt, dir)
					}
				}
			}
		}
	}
}

// alternatives splits a go test pattern into the patterns it ORs
// together, each group expanded into its members: "^A(B|C)$|^D$"
// gives "^AB$", "^AC$" and "^D$".
func alternatives(pat string) []string {
	g := regexp.MustCompile(`\(([^()]*)\)`).FindStringSubmatchIndex(pat)
	if g == nil {
		return strings.Split(pat, "|")
	}
	var out []string
	for _, member := range strings.Split(pat[g[2]:g[3]], "|") {
		out = append(out, alternatives(pat[:g[0]]+member+pat[g[1]:])...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// under reports whether the slash-separated path lies inside dir.
func under(path, dir string) bool { return strings.HasPrefix(path, dir+"/") }
