package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// setFile is one set: every run of every workload on one commit, one seed
// and one machine, with each end-to-end metric summarised over the untraced
// runs. -compare reads two of them.
type setFile struct {
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numCPU"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`

	// Runs keeps every run in the order it was made.
	Runs []record `json:"runs"`
	// EndToEnd is workload -> metric -> distribution over the untraced runs.
	EndToEnd map[string]map[string]summary `json:"endToEnd"`
	// PerLayer is workload -> metric -> value from the traced run.
	PerLayer map[string]map[string]value `json:"perLayer"`
	// Ops is workload -> ops attempted and failed over all its runs.
	Ops map[string]opCount `json:"ops"`
}

type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// runSet makes the runs of a set, each in a child process of this binary so
// set-up time, peak RSS and GC state are the workload's own. Rounds go over
// all workloads before repeating one, so slow drift of the machine spreads
// over every workload instead of landing on the last.
func runSet(stdout, stderr io.Writer, path, outDir string, runs int, seed int64, seconds int) (failed bool, err error) {
	if runs < 1 {
		return false, fmt.Errorf("-runs must be at least 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	set := &setFile{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Seconds: seconds,
	}
	child := func(name string, traced int) error {
		recPath := filepath.Join(outDir, fmt.Sprintf("record-%d.json", os.Getpid()))
		defer os.Remove(recPath)
		cmd := exec.Command(exe,
			"--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced),
			"-out", outDir, "-record", recPath)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		var rec record
		if err := readJSON(recPath, &rec); err != nil {
			// A run with failed ops exits non-zero but still leaves its
			// record; no record means the run itself broke.
			return fmt.Errorf("%s (trace %d): %v; %w", name, traced, runErr, err)
		}
		set.Runs = append(set.Runs, rec)
		fmt.Fprintf(stdout, "ran %-14s trace %d  attempted %d  failed %d\n", name, traced, rec.Attempted, rec.Failed)
		return nil
	}
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			if err := child(w.name, 0); err != nil {
				return false, err
			}
		}
	}
	for _, w := range workloads {
		if err := child(w.name, 1); err != nil {
			return false, err
		}
	}
	set.summarize()
	printSet(stdout, set)
	if err := writeJSON(path, set); err != nil {
		return false, err
	}
	for _, oc := range set.Ops {
		if oc.Failed > 0 {
			failed = true
		}
	}
	return failed, nil
}

// summarize fills the derived sections from Runs. A final-state digest
// that differs between two runs of one workload (same commit, same seed)
// counts as a failed op.
func (s *setFile) summarize() {
	s.EndToEnd = map[string]map[string]summary{}
	s.PerLayer = map[string]map[string]value{}
	s.Ops = map[string]opCount{}
	for _, w := range workloads {
		var oc opCount
		digest := ""
		samples := map[string][]float64{}
		for _, rec := range s.Runs {
			if rec.Workload != w.name {
				continue
			}
			oc.Attempted += rec.Attempted
			oc.Failed += rec.Failed
			oc.Attempted++
			if digest == "" {
				digest = rec.Digest
			} else if rec.Digest != digest {
				oc.Failed++
			}
			if rec.Traced {
				s.PerLayer[w.name] = rec.Metrics
				continue
			}
			for _, d := range endToEnd {
				if v, ok := rec.Metrics[d.name]; ok {
					samples[d.name] = append(samples[d.name], v.Value)
				}
			}
		}
		s.Ops[w.name] = oc
		s.EndToEnd[w.name] = map[string]summary{}
		for _, d := range endToEnd {
			if xs := samples[d.name]; len(xs) > 0 {
				s.EndToEnd[w.name][d.name] = summarize(d.unit, xs)
			}
		}
	}
}

func printSet(w io.Writer, s *setFile) {
	fmt.Fprintf(w, "\nset: seed %d, %d s windows, %s, GOMAXPROCS %d of %d CPUs\n",
		s.Seed, s.Seconds, s.GoVersion, s.GOMAXPROCS, s.NumCPU)
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %14s %8s %3s  %s\n",
		"workload", "metric", "median", "q1", "q3", "spread", "n", "unit")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			sm, ok := s.EndToEnd[wl.name][d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %14.6g %7.1f%% %3d  %s\n",
				wl.name, d.name, sm.Median, sm.Q1, sm.Q3, 100*sm.spread(), sm.N, sm.Unit)
		}
		oc := s.Ops[wl.name]
		fmt.Fprintf(w, "%-14s %-22s %14d\n%-14s %-22s %14d\n",
			wl.name, "ops_attempted", oc.Attempted, wl.name, "ops_failed", oc.Failed)
	}
}
