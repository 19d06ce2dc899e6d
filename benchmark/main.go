// Command benchmark is the repository benchmark (BENCHMARK.json): five named
// workloads measured end to end and layer by layer, from outside the
// program — by timing calls into the layers' public functions and reading
// values the program already returns. README.md has the tables.
//
//	go run ./benchmark --workload evrard-serial --seed 1 --seconds 12 --trace 0
//	go run ./benchmark --workload serve-cold --seed 1 --seconds 12 --trace 1
//	go run ./benchmark -set benchmark/out/a.json
//	go run ./benchmark -compare benchmark/out/a.json benchmark/out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "workload seed: perturbs one physical parameter per engine scenario by at most 1% and draws the serve workloads' job parameters and key order")
	seconds := fs.Int("seconds", referenceSeconds, "nominal length of the timed window; it scales the op counts, which fix the window")
	traced := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: untraced and traced pass, per-layer metrics and a span trace")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for span traces and scratch files")
	recordTo := fs.String("record", "", "also write the run's full record as JSON to this file (how -set collects its runs)")
	setTo := fs.String("set", "", "run a whole set — -runs untraced runs and one traced run of every workload, each in its own process — and write it to this file")
	runs := fs.Int("runs", 3, "untraced runs per workload in a set")
	compare := fs.Bool("compare", false, "compare two set files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two set files, got %d arguments", fs.NArg()))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	case *setTo != "":
		failed, err := runSet(stdout, stderr, *setTo, *outDir, *runs, *seed, *seconds)
		if err != nil {
			return fail(err)
		}
		if failed {
			return 1
		}
		return 0
	}

	if _, ok := passes[*name]; !ok {
		return fail(fmt.Errorf("unknown workload %q (have %v)", *name, workloadNames()))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fail(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	rec, err := runOne(*name, *seed, *seconds, *traced == 1, *outDir)
	if err != nil {
		return fail(err)
	}
	printRecord(stdout, rec)
	if *recordTo != "" {
		if err := writeJSON(*recordTo, rec); err != nil {
			return fail(err)
		}
	}
	if err := printResultLine(stdout, rec); err != nil {
		return fail(err)
	}
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// runOne runs one workload in this process, with its scratch files under
// outDir and removed afterwards.
func runOne(name string, seed int64, seconds int, traced bool, outDir string) (*record, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	c := runCtx{seed: seed, seconds: seconds, sz: fullSizes(seconds), tmpDir: tmp}
	if traced {
		return runTraced(name, c, filepath.Join(outDir, name+".trace.json"))
	}
	return runUntraced(name, c)
}

// printRecord prints every metric by name with its unit, then the failures.
func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  traced %v  %s GOMAXPROCS=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Traced, runtime.Version(), runtime.GOMAXPROCS(0))
	defs := endToEnd
	if rec.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := rec.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-32s %16.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "  %-32s %16d\n  %-32s %16d\n  %-32s %16s\n",
		"ops_attempted", rec.Attempted, "ops_failed", rec.Failed, "digest", rec.Digest)
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}

// printResultLine prints the benchmark contract's last line: every
// end-to-end metric of an untraced run, every per-layer metric of a traced
// one — a per-layer metric this workload does not declare reads 0.
func printResultLine(w io.Writer, rec *record) error {
	defs := endToEnd
	if rec.Traced {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := rec.Metrics[d.name]
		if !ok {
			v = value{Unit: d.unit}
		}
		metrics[d.name] = v
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}
