package clustersim

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignIndexNamesExist: every backticked Benchmark… or Test… name in
// DESIGN.md's per-experiment index must be declared in a _test.go file
// of this module, so the index cannot point readers at a benchmark that
// was renamed or folded into another.
func TestDesignIndexNamesExist(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(doc), "\n## Per-experiment index\n")
	if !ok {
		t.Fatal("DESIGN.md has no per-experiment index")
	}
	if end := strings.Index(index, "\n#"); end >= 0 {
		index = index[:end]
	}
	cited := regexp.MustCompile("`((?:Benchmark|Test)[A-Za-z0-9_]*)`").FindAllStringSubmatch(index, -1)
	if len(cited) == 0 {
		t.Fatal("the per-experiment index cites no benchmark or test")
	}

	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Benchmark|Test)\w*)\(`)
	walkGo(t, func(path string, src []byte) {
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
				declared[m[1]] = true
			}
		}
	})
	for _, m := range cited {
		if !declared[m[1]] {
			t.Errorf("DESIGN.md's per-experiment index cites %s, which no _test.go declares", m[1])
		}
	}
}

// TestNoMachineEscapes: production code runs machines only inside
// machine.SimulateVariants batches, which recycle each machine once the
// caller's consume returns. Outside internal/machine, no non-test file
// may pool or recycle a machine itself; the facade's caller-owned
// machine.New stays allowed.
func TestNoMachineEscapes(t *testing.T) {
	banned := regexp.MustCompile(`machine\.(Recycle|NewPooled)\(`)
	walkGo(t, func(path string, src []byte) {
		if strings.HasSuffix(path, "_test.go") || filepath.ToSlash(filepath.Dir(path)) == "internal/machine" {
			return
		}
		for _, m := range banned.FindAll(src, -1) {
			t.Errorf("%s calls %s: only a SimulateVariants batch may own a pooled machine", path, m)
		}
	})
}

// walkGo calls fn with the path and contents of every .go file of this
// module, skipping hidden directories and nested modules.
func walkGo(t *testing.T, fn func(path string, src []byte)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fn(path, src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
