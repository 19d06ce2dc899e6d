// Package lintkit is the project-native static-analysis driver behind
// cmd/sphexa-lint. The system's correctness rests on conventions no
// general-purpose tool checks: canonical-hash coverage of spec structs,
// deterministic marshaling on cache-identity paths, panic containment of
// compute fan-outs via internal/par.Catcher, documented lock discipline,
// and the closed /v1 error-code registry. Each analyzer in this package
// mechanically enforces one of those invariants at analysis time, so the
// bug classes that produced incidents (a field added to JobSpec but missed
// by the hash, a bare `go func` taking the server down) become lint errors
// instead of runtime discoveries. An analyzer stays only while it catches
// a mutation of the tree that no test, go vet, -race or golden catches;
// EXPERIMENTS.md keeps that mutation table.
//
// The driver is dependency-free: stdlib go/parser + go/types with the
// source importer. It type-checks the module's packages and runs every
// registered analyzer over each, reporting findings as
// `file:line:col: [analyzer] message`. A reviewed-suppression baseline
// (LINT_BASELINE.json, every entry carrying a justification) silences
// intentionally-kept sites; any unbaselined finding is a non-zero exit.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Version identifies the tool build; bump on analyzer or schema changes so
// the contract smoke can pin expectations.
const Version = "1.1.0"

// Finding is one analyzer report. File is relative to the module root
// (slash-separated) when the position is inside it. The JSON field names
// are a stable schema — cmd/sphexa-lint -json emits them verbatim and the
// driver test pins them.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// Key is the suppression identity of a finding. Line numbers drift with
// unrelated edits, so the baseline matches on analyzer + file + message.
func (f Finding) Key() string {
	return f.Analyzer + "\x00" + f.File + "\x00" + f.Message
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one registered invariant check.
type Analyzer struct {
	// Name labels findings and baseline entries (stable, kebab-free).
	Name string
	// Doc is the one-line invariant statement printed by -list.
	Doc string
	// Run inspects one type-checked package and reports via pass.Reportf.
	Run func(pass *Pass) error
}

// All returns the registered analyzers, in stable order. cmd/sphexa-smoke
// prints this list so a silently-empty registry fails the contract smoke.
func All() []*Analyzer {
	return []*Analyzer{
		DetMarshal,
		ErrCodes,
		GoCatcher,
		GuardedBy,
		HashCover,
	}
}

// Pass is one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test sources, with comments.
	Files []*ast.File
	// Pkg and Info are the type-checked package. Imported packages loaded
	// by the source importer share Fset, so cross-package positions (e.g. a
	// hashed struct's field declared in another package) resolve correctly.
	Pkg  *types.Package
	Info *types.Info
	// Module is the module path ("repro"); analyzers use it to keep their
	// checks inside the tree they can fix.
	Dir    string // module root directory (for relativizing positions)
	Module string

	findings *[]Finding
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	file := position.Filename
	if p.Dir != "" {
		if rel, err := filepath.Rel(p.Dir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
	}
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// sortFindings orders findings by file, line, column, analyzer, message and
// drops exact duplicates (the same cross-package struct can be reached from
// several passes).
func sortFindings(fs []Finding) []Finding {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && f == fs[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// --- Small shared AST/type helpers used by several analyzers ---------------

// funcObjOf resolves a call's callee to its *types.Func, if any (plain
// function, method value, or selector call). A method of an instantiated
// generic type resolves to the generic declaration, the object the pass's
// function declarations are indexed by.
func funcObjOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// isBuiltin reports whether the call invokes the named builtin (e.g.
// append, recover).
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name() == name
	}
	return false
}

// recvNamed returns the (pointer-stripped) named receiver type of a method.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// namedOf strips pointers and returns the named type of t, if any — for an
// instantiated generic type, the generic declaration.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// declOfFuncs indexes the pass's function declarations by their type
// objects, so analyzers can follow a call to its body within the package.
func declOfFuncs(p *Pass) map[*types.Func]*ast.FuncDecl {
	m := map[*types.Func]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				m[fn] = fd
			}
		}
	}
	return m
}

// inspectStmtsShallow walks the statements of a block without descending
// into nested function literals, calling visit for every node reached.
func inspectStmtsShallow(body *ast.BlockStmt, visit func(n ast.Node) bool) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return true
		}
		return visit(n)
	})
}

// containsIdentObj reports whether the expression subtree mentions an
// identifier resolving to obj.
func containsIdentObj(info *types.Info, root ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if info.Uses[id] == obj || info.Defs[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}
