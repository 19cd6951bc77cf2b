package attila_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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
func TestOneRunAssembler(t *testing.T) {
	// Calls that wire a run, by selector name; only the listed
	// directories may make them.
	wiring := map[string]bool{
		"EnableCheckpoints": true, "RestoreCheckpoint": true, "ResumeContext": true,
		"EnableSpanTracing": true, "SetClockGate": true, "SetFault": true,
	}
	mayWire := func(path string) bool {
		return under(path, "internal/gpu") || under(path, "internal/run") || under(path, "bench")
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

// under reports whether the slash-separated path lies inside dir.
func under(path, dir string) bool { return strings.HasPrefix(path, dir+"/") }
