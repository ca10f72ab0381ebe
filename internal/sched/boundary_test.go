package sched

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSchedulersNeitherTimeNorCount guards the boundary between the
// schedulers and the engine: a scheduler is a pure decision procedure,
// and the engine alone times and counts its decisions. No non-test file
// under internal/sched may import the telemetry package or time.
func TestSchedulersNeitherTimeNorCount(t *testing.T) {
	forbidden := map[string]bool{"time": true, "github.com/euastar/euastar/internal/telemetry": true}
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); forbidden[p] {
				t.Errorf("%s imports %s", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 10 {
		t.Fatalf("parsed only %d files; the walk missed the scheduler packages", files)
	}
}
