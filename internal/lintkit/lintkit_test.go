package lintkit

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestAllAnalyzers pins the registry by name, in order. Each analyzer here
// catches a mutation of the tree that no test, go vet, -race or golden
// catches (EXPERIMENTS.md's mutation table); adding or deleting one is a
// reviewed edit of this list.
func TestAllAnalyzers(t *testing.T) {
	want := []string{"detmarshal", "errcodes", "gocatcher", "guardedby", "hashcover"}
	var got []string
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing Name, Doc, or Run", a)
		}
		got = append(got, a.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("All() = %v, want %v", got, want)
	}
}

// TestFindingJSONSchema pins the -json field names: downstream tooling
// parses them, so a rename is a breaking change that must be deliberate.
func TestFindingJSONSchema(t *testing.T) {
	b, err := json.Marshal(Finding{Analyzer: "a", File: "f.go", Line: 1, Col: 2, Message: "m"})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"analyzer":"a","file":"f.go","line":1,"col":2,"message":"m"}`
	if string(b) != want {
		t.Fatalf("Finding JSON schema drifted:\n got %s\nwant %s", b, want)
	}
}

func TestBaselineApply(t *testing.T) {
	bl := &Baseline{Version: 1, Entries: []BaselineEntry{
		{Analyzer: "gocatcher", File: "a.go", Message: "msg one", Justification: "reviewed"},
		{Analyzer: "hashcover", File: "b.go", Message: "never fires", Justification: "stale"},
	}}
	findings := []Finding{
		{Analyzer: "gocatcher", File: "a.go", Line: 10, Message: "msg one"},
		{Analyzer: "gocatcher", File: "a.go", Line: 99, Message: "msg one"}, // same key, moved line
		{Analyzer: "gocatcher", File: "a.go", Line: 11, Message: "msg two"},
	}
	kept, suppressed, unused := bl.Apply(findings)
	if len(kept) != 1 || kept[0].Message != "msg two" {
		t.Fatalf("kept = %v, want only the unbaselined finding", kept)
	}
	if len(suppressed) != 2 {
		t.Fatalf("suppressed = %v, want both line variants of the baselined key", suppressed)
	}
	if len(unused) != 1 || unused[0].Message != "never fires" {
		t.Fatalf("unused = %v, want the stale entry", unused)
	}
}

func TestLoadBaseline(t *testing.T) {
	dir := t.TempDir()

	// Missing file: empty baseline, no error.
	bl, err := LoadBaseline(filepath.Join(dir, "missing.json"))
	if err != nil || len(bl.Entries) != 0 {
		t.Fatalf("missing baseline: got %v, %v; want empty, nil", bl, err)
	}

	// A justification is mandatory on every entry.
	noWhy := filepath.Join(dir, "nowhy.json")
	if err := os.WriteFile(noWhy, []byte(`{"version":1,"entries":[{"analyzer":"a","file":"f","message":"m"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(noWhy); err == nil {
		t.Fatal("baseline entry without justification loaded without error")
	}

	// Unknown versions are rejected, not misread.
	badVer := filepath.Join(dir, "v9.json")
	if err := os.WriteFile(badVer, []byte(`{"version":9,"entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(badVer); err == nil {
		t.Fatal("baseline with unsupported version loaded without error")
	}

	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"version":1,"entries":[{"analyzer":"a","file":"f","message":"m","justification":"why"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	bl, err = LoadBaseline(good)
	if err != nil || len(bl.Entries) != 1 {
		t.Fatalf("good baseline: got %v, %v", bl, err)
	}
}

// TestRunnerRun drives the full load path (module discovery, source
// importer, type check, analyzers) over one small real package.
func TestRunnerRun(t *testing.T) {
	r, err := NewRunner(".")
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run([]string{"internal/par"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LoadErrors) != 0 {
		t.Fatalf("load errors: %v", res.LoadErrors)
	}
	if res.Packages != 1 {
		t.Fatalf("Packages = %d, want 1", res.Packages)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("internal/par should be clean, got %v", res.Findings)
	}
}
