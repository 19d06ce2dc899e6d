package lintkit

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFixture runs one analyzer over the fixture package at
// internal/lintkit/testdata/src/<name> and checks its findings against the
// `// want "substring"` comments in the fixture sources: every finding must
// match a want on its line, and every want must be matched by a finding.
// Fixtures are real type-checked Go (they may import module packages such
// as internal/par), so the analyzers see the same type information the
// production driver does.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	root, module, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	dir := filepath.Join(root, "internal", "lintkit", "testdata", "src", name)
	build.Default.Dir = root
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	if len(files) == 0 {
		t.Fatalf("fixture %s has no Go sources", dir)
	}
	pkgPath := module + "/internal/lintkit/testdata/src/" + name
	imp := importer.ForCompiler(fset, "source", nil)
	pkg, info, err := checkPackage(fset, imp, pkgPath, files)
	if err != nil {
		t.Fatalf("type-check %s: %v", dir, err)
	}
	var findings []Finding
	pass := &Pass{
		Analyzer: a,
		Fset:     fset,
		Files:    files,
		Pkg:      pkg,
		Info:     info,
		Dir:      dir,
		Module:   module,
		findings: &findings,
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	findings = sortFindings(findings)

	wants := collectWants(fset, files)
	for _, f := range findings {
		if !wants.match(f) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants.unmatched() {
		t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.substr)
	}
}

var wantRe = regexp.MustCompile(`want "([^"]+)"`)

// want is one expectation parsed from a fixture comment: a finding on this
// file:line whose message contains substr.
type want struct {
	file    string
	line    int
	substr  string
	matched bool
}

type wantSet struct{ wants []*want }

func collectWants(fset *token.FileSet, files []*ast.File) *wantSet {
	ws := &wantSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					ws.wants = append(ws.wants, &want{
						file:   filepath.Base(pos.Filename),
						line:   pos.Line,
						substr: m[1],
					})
				}
			}
		}
	}
	return ws
}

func (ws *wantSet) match(f Finding) bool {
	ok := false
	for _, w := range ws.wants {
		if w.line == f.Line && w.file == filepath.Base(f.File) && strings.Contains(f.Message, w.substr) {
			w.matched = true
			ok = true
		}
	}
	return ok
}

func (ws *wantSet) unmatched() []*want {
	var out []*want
	for _, w := range ws.wants {
		if !w.matched {
			out = append(out, w)
		}
	}
	return out
}

func TestFixtures(t *testing.T) {
	cases := []struct {
		a   *Analyzer
		dir string
	}{
		{HashCover, "hashcover"},
		{DetMarshal, "detmarshal"},
		{GoCatcher, "gocatcher"},
		{GuardedBy, "guardedby"},
		{ErrCodes, "errcodes"},
	}
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) { runFixture(t, c.a, c.dir) })
	}
}
