// Command sphexa-lint runs the project-native static-analysis suite
// (internal/lintkit) over the module: a registry of analyzers that
// mechanically enforce the fleet's invariants — canonical-hash coverage,
// deterministic marshaling, panic containment, documented lock discipline,
// and the closed /v1 error-code registry. Each analyzer catches a mutation
// of the tree that no test, go vet, -race or golden catches (the mutation
// table is in EXPERIMENTS.md); metric naming is asserted by
// internal/server's TestMetricFamilyInventory instead.
//
// Usage:
//
//	sphexa-lint [flags] [packages]
//
// Packages are ./...-style patterns or directories relative to the module
// root; the default is ./... . Findings print as
// `file:line:col: [analyzer] message`. Reviewed exceptions live in
// LINT_BASELINE.json (each entry with a justification); any unbaselined
// finding exits 1, load or usage errors exit 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/lintkit"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "emit findings as JSON (stable schema)")
		baseline = flag.String("baseline", "LINT_BASELINE.json", "reviewed-suppression baseline file, relative to the module root (empty disables)")
		list     = flag.Bool("list", false, "print the registered analyzers and exit")
		version  = flag.Bool("version", false, "print tool version and analyzer count, then exit")
		strict   = flag.Bool("strict", false, "also fail (exit 1) on stale baseline entries that no longer match any finding")
	)
	flag.Parse()

	if *version {
		fmt.Printf("sphexa-lint %s (%d analyzers)\n", lintkit.Version, len(lintkit.All()))
		return
	}
	if *list {
		for _, a := range lintkit.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	os.Exit(run(*jsonOut, *baseline, *strict, flag.Args()))
}

// report is the -json output schema; the lintkit driver test pins the
// field names so downstream tooling can depend on them.
type report struct {
	Version    int               `json:"version"`
	Tool       string            `json:"tool"`
	Analyzers  []string          `json:"analyzers"`
	Findings   []lintkit.Finding `json:"findings"`
	Suppressed int               `json:"suppressed"`
}

func run(jsonOut bool, baselinePath string, strict bool, patterns []string) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sphexa-lint:", err)
		return 2
	}
	runner, err := lintkit.NewRunner(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sphexa-lint:", err)
		return 2
	}
	res, err := runner.Run(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sphexa-lint:", err)
		return 2
	}
	for _, le := range res.LoadErrors {
		fmt.Fprintln(os.Stderr, "sphexa-lint: load:", le.Error())
	}

	findings := res.Findings
	var suppressed []lintkit.Finding
	var unused []lintkit.BaselineEntry
	if baselinePath != "" {
		bl, err := lintkit.LoadBaseline(joinRoot(runner.Dir, baselinePath))
		if err != nil {
			fmt.Fprintln(os.Stderr, "sphexa-lint:", err)
			return 2
		}
		findings, suppressed, unused = bl.Apply(findings)
	}

	if jsonOut {
		var names []string
		for _, a := range lintkit.All() {
			names = append(names, a.Name)
		}
		out := report{
			Version:    1,
			Tool:       "sphexa-lint " + lintkit.Version,
			Analyzers:  names,
			Findings:   findings,
			Suppressed: len(suppressed),
		}
		if out.Findings == nil {
			out.Findings = []lintkit.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "sphexa-lint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}

	for _, e := range unused {
		fmt.Fprintf(os.Stderr, "sphexa-lint: stale baseline entry (no matching finding): [%s] %s: %s\n",
			e.Analyzer, e.File, e.Message)
	}

	switch {
	case len(res.LoadErrors) > 0:
		return 2
	case len(findings) > 0:
		return 1
	case strict && len(unused) > 0:
		return 1
	}
	if !jsonOut {
		fmt.Fprintf(os.Stderr, "sphexa-lint: %d packages clean (%d analyzers, %d suppressed by baseline)\n",
			res.Packages, len(lintkit.All()), len(suppressed))
	}
	return 0
}

// joinRoot resolves a possibly-relative path against the module root.
func joinRoot(root, path string) string {
	if path == "" || path[0] == '/' {
		return path
	}
	return root + string(os.PathSeparator) + path
}
