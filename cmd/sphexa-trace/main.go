// Command sphexa-trace reproduces the paper's Figure 4: an Extrae-style
// visualization of one SPHYNX time-step (Evrard collapse, 192 cores on
// modeled Piz Daint), with phase annotations A-J and the POP efficiency
// metrics discussed in §5.2.
//
// With -server and -job, the modeled prediction is rendered beside the
// *measured* timeline of a completed job, fetched from a running
// sphexa-serve instance: the server reassembles per-rank phase intervals
// from the job's persisted timing record and telemetry track
// (GET /v1/jobs/{id}/trace) and reports POP metrics computed from real
// intervals next to the model's. -perfetto-out additionally saves the
// job's Chrome trace-event JSON for Perfetto / chrome://tracing.
//
//	sphexa-trace
//	sphexa-trace -exec-n 32000 -sweep
//	sphexa-trace -server http://localhost:8080 -job job-000001
//	sphexa-trace -server http://localhost:8080 -job job-000001 -perfetto-out job.trace.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/pkg/client"
)

func main() {
	var (
		n     = flag.Int("n", experiments.PaperN, "modeled particle count")
		execN = flag.Int("exec-n", 16000, "executed particle count")
		sweep = flag.Bool("sweep", false, "also print the POP efficiency sweep across core counts")

		serverURL = flag.String("server", "",
			"base URL of a sphexa-serve instance to fetch a measured job trace from (requires -job)")
		jobID = flag.String("job", "",
			"completed job whose measured timeline to render beside the modeled prediction")
		perfettoOut = flag.String("perfetto-out", "",
			"also save the job's Chrome trace-event JSON to this file (requires -job)")
	)
	flag.Parse()

	if (*serverURL == "") != (*jobID == "") {
		fmt.Fprintln(os.Stderr, "sphexa-trace: -server and -job must be given together")
		os.Exit(1)
	}
	if *jobID != "" {
		if err := renderMeasured(*serverURL, *jobID, *perfettoOut); err != nil {
			fmt.Fprintln(os.Stderr, "sphexa-trace:", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Println("Modeled prediction for comparison (paper Figure 4 configuration):")
		fmt.Println()
	}

	opt := experiments.Options{N: *n, ExecN: *execN, Steps: 1}
	res, err := experiments.Fig4(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sphexa-trace:", err)
		os.Exit(1)
	}
	fmt.Printf("Figure 4 reproduction: SPHYNX Evrard time-step at %d cores (16 ranks x 12 threads)\n", res.CoresUsed)
	fmt.Print("phases:")
	for _, ph := range res.Phases {
		fmt.Printf(" %s=%s", ph.Phase, core.PhaseID(ph.Phase).Label())
	}
	fmt.Print("\n\n")
	fmt.Println(res.Timeline)
	fmt.Println("Per-phase totals across ranks (simulated seconds):")
	fmt.Printf("%12s %14s %14s %14s\n", "phase", "compute", "mpi", "other")
	for _, ph := range res.Phases {
		fmt.Printf("%12s %14.4f %14.4f %14.4f\n", ph.Phase, ph.Compute, ph.MPI, ph.Other)
	}
	m := res.Metrics
	fmt.Printf("\nPOP metrics: load balance %.3f, communication efficiency %.3f, parallel efficiency %.3f\n",
		m.LoadBalance, m.CommEfficiency, m.ParallelEfficiency)

	if *sweep {
		// §5.2's sweep: SPHYNX on the square patch, Piz Daint.
		r, err := experiments.RunScaling("sphynx", codes.SquarePatch, []string{"daint"},
			experiments.Options{N: *n, ExecN: *execN, Steps: 2, Cores: []int{12, 48, 96, 192}})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sphexa-trace:", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Println(r.Format())
	}
}

// renderMeasured prints the server-reassembled measured timeline of a
// completed job (the Paraver-style rendering, which carries the measured
// POP metrics beside the server's modeled prediction for the same spec)
// and optionally saves the Perfetto document.
func renderMeasured(base, jobID, perfettoOut string) error {
	ctx := context.Background()
	c := client.New(base)
	text, err := c.RawJobTrace(ctx, jobID, client.TraceFormatParaver)
	if err != nil {
		return err
	}
	fmt.Printf("Measured timeline of %s (from %s):\n\n", jobID, base)
	os.Stdout.Write(text)
	if perfettoOut != "" {
		raw, err := c.RawJobTrace(ctx, jobID, client.TraceFormatPerfetto)
		if err != nil {
			return err
		}
		if err := os.WriteFile(perfettoOut, raw, 0o644); err != nil {
			return err
		}
		fmt.Printf("\nperfetto trace written: %s\n", perfettoOut)
	}
	return nil
}
