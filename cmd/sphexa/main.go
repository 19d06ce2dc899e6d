// Command sphexa runs a single SPH-EXA mini-app simulation: one of the
// paper's test cases (or a Sedov blast, Sod tube, ...) from the scenario
// registry (internal/scenario), locally or — with -server — on a running
// sphexa-serve instance. Per the mini-app design guidance the paper cites
// [35], the interface is a handful of command-line flags:
//
//	sphexa -scenario evrard -n 10000 -steps 20
//	sphexa -scenario square -kernel wendland-c2 -gradients kd -steps 10
//	sphexa -scenario sod -n 8000 -steps 20 -verify
//	sphexa -scenario noh -checkpoint-dir /tmp/ck -restart
//	sphexa -scenario sod -n 4000 -steps 10 -trace-out sod.trace.json
//
// The flags build one JobSpec for both modes. A local run goes through the
// executor the job server runs its jobs through (internal/runloop), on the
// shared-memory engine, in chunks of runloop.DefaultChunkSteps steps like
// every served job, so a local run and a served `-backend serial` job are
// the same run: same final state, same verification report, with or without
// -checkpoint-dir (which only adds a checkpoint between chunks), unless
// the detectors below stop the local run. The scenario supplies the whole
// engine configuration; -kernel, -gradients, -volumes, -stepping,
// -multipoles and -workers edit it, and only those given do.
// Silent-data-corruption detectors check every step of a local run and
// stop it when they trip; a served job runs none, so there a run that
// blows up completes and is stored.
// SIGINT/SIGTERM interrupt at a step boundary — the state is synchronized,
// checkpointed (when enabled), and the conservation summary still prints —
// and -restart (which needs -checkpoint-dir) resumes from the newest
// checkpoint toward the same -steps.
//
// With -verify the final snapshot is scored against the scenario's analytic
// reference (internal/verify) and the report prints after the run; the exit
// status is non-zero if the registered acceptance thresholds fail. With
// -trace-out a local run's measured wall-clock timeline (per-step engine
// phases A-J under the restore/run/checkpoint/verify lifecycle) is written
// as Chrome trace-event JSON for Perfetto or chrome://tracing, assembled
// from the run's telemetry track exactly as GET /v1/jobs/{id}/trace
// assembles a served job's — so a run of more than 256 steps is downsampled
// the same way.
//
// With -server the job is submitted through the /v1 client (pkg/client) —
// -backend/-machine/-cost select the execution section, -cores the modeled
// core count; the engine flags are ignored — and the CLI follows the job's
// event stream, prints the verification rollup, and (with -verify) fetches
// and prints the full persisted report:
//
//	sphexa -server http://localhost:8080 -scenario sod -n 8000 -steps 20 -verify
//	sphexa -server http://localhost:8080 -scenario sod -backend serial -verify
//	sphexa -server http://localhost:8080 -scenario evrard -machine marenostrum -cost sphynx
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/conserve"
	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/gravity"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/part"
	"repro/internal/runloop"
	"repro/internal/scenario"
	"repro/internal/sph"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/ts"
	"repro/internal/verify"
	"repro/pkg/client"
)

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == nil {
		if o.server != "" {
			err = runRemote(o)
		} else {
			_, err = runLocal(o)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sphexa:", err)
		os.Exit(1)
	}
}

// options is the parsed command line: the job — one JobSpec for the local
// and the -server mode — and what surrounds running it.
type options struct {
	spec scenario.JobSpec
	// edit applies the engine flags the user set to the scenario's config.
	edit          func(*core.Config)
	ckptDir       string
	restart       bool
	verify        bool
	traceOut      string
	server        string
	tailTelemetry bool
}

const scenarioChoice = "the scenario's choice when not given; "

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("sphexa", flag.ExitOnError)
	o := &options{}
	fs.StringVar(&o.spec.Scenario, "scenario", "evrard",
		"workload from the scenario registry: "+strings.Join(scenario.Names(), ", "))
	fs.IntVar(&o.spec.Params.N, "n", 10000, "approximate particle count")
	fs.IntVar(&o.spec.Params.NNeighbors, "neighbors", 100, "target neighbor count")
	fs.IntVar(&o.spec.Steps, "steps", 20, "total time steps (a restored run continues to this total)")
	fs.String("kernel", "", scenarioChoice+"SPH kernel (m4, wendland-c2/c4/c6, sinc-<n>)")
	fs.String("gradients", "", scenarioChoice+"gradient mode: iad or kd (kernel derivatives)")
	fs.String("volumes", "", scenarioChoice+"volume elements: generalized or standard")
	fs.String("stepping", "", scenarioChoice+"time stepping: global or adaptive")
	fs.String("multipoles", "", scenarioChoice+"gravity expansion: monopole, quadrupole, hexadecapole")
	fs.Int("workers", 0, "worker threads (all cores when not given)")
	fs.StringVar(&o.ckptDir, "checkpoint-dir", "", "enable checkpointing into this directory")
	fs.BoolVar(&o.restart, "restart", false, "restore from the newest checkpoint before running")
	fs.BoolVar(&o.verify, "verify", false,
		"score the final snapshot against the scenario's analytic reference and print the verification report; exit non-zero if the registered acceptance thresholds fail")
	fs.StringVar(&o.server, "server", "",
		"submit the job to a running sphexa-serve instance (base URL) through pkg/client instead of executing locally; engine flags (-kernel, -gradients, ...) are ignored remotely")
	fs.StringVar(&o.spec.Exec.Backend, "backend", "",
		"execution backend of a -server job: parallel (default) or serial")
	fs.StringVar(&o.spec.Exec.Machine, "machine", "",
		"modeled machine of a -server job (daint, marenostrum; empty = daint)")
	fs.StringVar(&o.spec.Exec.Cost, "cost", "",
		"parent-code cost calibration of a -server job (sphynx, changa, sphflow; empty = a neutral calibration)")
	fs.IntVar(&o.spec.Cores, "cores", 0, "modeled core count of a -server job")
	fs.BoolVar(&o.tailTelemetry, "telemetry", false,
		"tail the live step-telemetry stream of a -server job (drift, dt, watchdogs)")
	fs.StringVar(&o.traceOut, "trace-out", "",
		"write the local run's measured phase timeline as Chrome trace-event "+
			"JSON to this file (load in Perfetto or chrome://tracing)")
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited

	var edits []func(*core.Config)
	var errs []error
	if o.restart && o.ckptDir == "" {
		errs = append(errs, errors.New("-restart needs -checkpoint-dir, the directory to restore from"))
	}
	fs.Visit(func(f *flag.Flag) {
		edit, err := engineFlag(f.Name, f.Value.String())
		edits, errs = append(edits, edit), append(errs, err)
	})
	o.edit = func(cfg *core.Config) {
		for _, edit := range edits {
			if edit != nil {
				edit(cfg)
			}
		}
	}
	return o, errors.Join(errs...)
}

// The spellings of the enumerated engine flags.
var (
	gradientModes = map[string]sph.GradientMode{
		"iad": sph.IAD, "kd": sph.KernelDerivatives, "kernel-derivatives": sph.KernelDerivatives}
	volumeModes   = map[string]sph.VolumeMode{"generalized": sph.GeneralizedVolume, "standard": sph.StandardVolume}
	steppingModes = map[string]ts.Mode{"global": ts.Global, "adaptive": ts.Adaptive}
	multipoles    = map[string]gravity.Order{
		"monopole": gravity.Monopole, "quadrupole": gravity.Quadrupole, "hexadecapole": gravity.Hexadecapole}
)

func choice[T any](flagName, v string, spellings map[string]T) (T, error) {
	x, ok := spellings[v]
	if !ok {
		return x, fmt.Errorf("unknown -%s %q (have %s)", flagName, v,
			strings.Join(slices.Sorted(maps.Keys(spellings)), ", "))
	}
	return x, nil
}

// engineFlag turns one engine flag the user set into its edit of the
// scenario's config; any other flag yields no edit.
func engineFlag(name, v string) (func(*core.Config), error) {
	switch name {
	case "kernel":
		k, err := kernel.New(v)
		return func(c *core.Config) { c.SPH.Kernel = k }, err
	case "gradients":
		g, err := choice(name, v, gradientModes)
		return func(c *core.Config) { c.SPH.Gradients = g }, err
	case "volumes":
		vol, err := choice(name, v, volumeModes)
		return func(c *core.Config) { c.SPH.Volumes = vol }, err
	case "stepping":
		m, err := choice(name, v, steppingModes)
		return func(c *core.Config) { c.Stepping = m }, err
	case "multipoles":
		order, err := choice(name, v, multipoles)
		return func(c *core.Config) { c.GravOrder = order }, err
	case "workers":
		n, err := strconv.Atoi(v)
		return func(c *core.Config) { c.SPH.Workers = n }, err
	}
	return nil, nil
}

// runRemote submits the job to a sphexa-serve instance as a typed /v1
// JobSpec and follows it to completion through the shared client: a line
// for each new step the job's /events stream reports, after (with
// -telemetry) a tail of the live flight-recorder stream (per-step
// conservation drift, dt, and the physics watchdog rollup).
func runRemote(o *options) error {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	c := client.New(o.server)

	job, err := c.Submit(ctx, o.spec)
	if err != nil {
		return err
	}
	fmt.Printf("sphexa: submitted %s to %s (job %s, hash %.12s, cacheHit=%v)\n",
		o.spec.Scenario, o.server, job.ID, job.Hash, job.CacheHit)

	if o.tailTelemetry && !job.Terminal() {
		// Tail the flight recorder: one line per new sample, watchdog
		// rollup changes flagged as they happen. The stream survives
		// kill-requeues and ends on the terminal frame.
		lastStep, lastStatus := -1, ""
		err := c.StreamTelemetry(ctx, job.ID, func(ev client.TelemetryEvent) bool {
			if ev.Telemetry != "" && ev.Telemetry != lastStatus {
				lastStatus = ev.Telemetry
				fmt.Printf("  watchdogs: %s\n", ev.Telemetry)
			}
			if s := ev.Sample; s != nil && s.Step != lastStep {
				lastStep = s.Step
				fmt.Printf("  step %d t=%.6f dt=%.3e |dE|=%.3e |dp|=%.3e h=[%.4f,%.4f]\n",
					s.Step, s.Time, s.DT, s.EnergyDrift, s.MomentumDrift, s.HMin, s.HMax)
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	// A line for each new step a live frame reports; after a telemetry
	// tail the stream's first frame is already the terminal one.
	lastStep := -1
	job, err = c.WatchJob(ctx, job.ID, func(j *client.Job) {
		if !j.Terminal() && j.Progress.Step != lastStep {
			lastStep = j.Progress.Step
			fmt.Printf("  step %d/%d t=%.6f\n", j.Progress.Step, j.Progress.Total, j.Progress.SimTime)
		}
	})
	if err != nil {
		return err
	}
	switch job.State {
	case client.StateCompleted:
		fmt.Printf("completed: %d steps, t=%.6f\n", job.Progress.Step, job.Progress.SimTime)
	default:
		return fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	if v := job.Verify; v != nil {
		fmt.Printf("verify rollup: reference=%s pass=%v l1Density=%.4g\n", v.Reference, v.Pass, v.L1Density)
	}
	if o.verify {
		rep, err := c.Metrics(ctx, job.ID)
		if err != nil {
			return err
		}
		printReport(rep)
		if !rep.Pass {
			return fmt.Errorf("verification failed: %s", failedChecks(rep))
		}
	}
	return nil
}

// runLocal runs the job on this machine, on the shared-memory engine
// (-backend, -machine, -cost and -cores describe a -server job), through
// the executor the job server uses.
func runLocal(o *options) (runloop.Result, error) {
	spec := o.spec
	spec.Exec = scenario.Exec{Backend: scenario.BackendSerial}
	spec, err := spec.Canonical()
	if err != nil {
		return runloop.Result{}, err
	}
	var ck *ft.Checkpointer
	var from *runloop.Start
	var restore []obs.Phase // the lifecycle's first phase, for -trace-out
	if o.ckptDir != "" {
		ck = &ft.Checkpointer{Dir: o.ckptDir}
	}
	if o.restart {
		sp := obs.StartSpan(obs.PhaseRestore, nil)
		ps, step, simTime, err := ck.Restore()
		if err != nil {
			return runloop.Result{}, fmt.Errorf("runloop: restore: %w", err)
		}
		restore = []obs.Phase{{Name: obs.PhaseRestore, Seconds: sp.End().Seconds()}}
		from = &runloop.Start{PS: ps, Step: step, SimTime: simTime}
		fmt.Printf("restored checkpoint: step %d, t=%.6f\n", step, simTime)
	}

	// SIGINT/SIGTERM cancel the run cooperatively at the next step
	// boundary; an SDC trip aborts through the same cancellation path.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	runCtx, abort := context.WithCancelCause(sigCtx)
	defer abort(nil)

	rec := telemetry.NewRecorder(nil)
	var first, last conserve.State
	var suite *ft.Suite
	armed := false
	res, err := runloop.Execute(spec, runloop.Env{
		Ctx:          runCtx,
		Checkpointer: ck,
		From:         from,
		Recorder:     rec,
		Configure: func(cfg *core.Config, ps *part.Set) {
			o.edit(cfg)
			fmt.Printf("sphexa: %s, %d particles, kernel=%s gradients=%s volumes=%s stepping=%s\n",
				spec.Scenario, ps.NLocal, cfg.SPH.Kernel.Name(), cfg.SPH.Gradients, cfg.SPH.Volumes, cfg.Stepping)
			fmt.Printf("%6s %14s %14s %14s %14s %14s\n", "step", "dt", "t", "E_total", "E_kin", "mean nbrs")
		},
		OnStep: func(rep core.StepReport, st conserve.State, ps *part.Set) {
			fmt.Printf("%6d %14.6e %14.6e %14.6e %14.6e %14.1f\n",
				rep.Step, rep.DT, rep.Time, st.Total(), st.Kinetic, rep.MeanNeighbors)
			last = st
			if !armed {
				// Arm detectors after the first step: the gravitational
				// potential diagnostic only exists once forces have been
				// evaluated, so earlier totals are not comparable.
				armed = true
				first = st
				suite = &ft.Suite{Detectors: []ft.Detector{
					ft.StructuralDetector{},
					&ft.ConservationDetector{Ref: first, Tolerance: 0.2},
				}}
			}
			if v := suite.Check(ps, st); v.Corrupted {
				abort(fmt.Errorf("SDC detector %q tripped at step %d: %s", v.Detector, rep.Step, v.Detail))
			}
		},
	})
	if err != nil {
		return res, err
	}

	switch cause := context.Cause(runCtx); {
	case res.Cancelled && sigCtx.Err() != nil:
		// Signal interruption: the executor synchronized the state it
		// stopped at; checkpoint it and exit cleanly. A step-0 state is not
		// worth a checkpoint: rerunning from scratch loses nothing.
		if ck != nil && res.Steps > 0 {
			if err := ck.Write(res.Steps, res.SimTime, res.PS); err != nil {
				return res, fmt.Errorf("checkpoint on interrupt: %w", err)
			}
			fmt.Printf("interrupted at step %d (t=%.6f); checkpoint written, resume with -restart\n",
				res.Steps, res.SimTime)
		} else {
			fmt.Printf("interrupted at step %d (t=%.6f)\n", res.Steps, res.SimTime)
		}
	case cause != nil && !errors.Is(cause, context.Canceled):
		// An SDC trip — also one raised on the final step, which has no
		// next step boundary for the run to observe and must not exit 0.
		return res, cause
	case res.Cancelled:
		return res, fmt.Errorf("run cancelled at step %d", res.Steps)
	}
	if armed {
		// The table's last row against its first: the per-step states the
		// served telemetry track samples too.
		fmt.Printf("conservation drift over run: %s\n", conserve.Compare(first, last))
	}
	if res.Cancelled {
		return res, nil
	}
	if o.traceOut != "" {
		m := runloop.Measured(rec.TrackSnapshot(), res.Timing, append(restore, res.Phases.Phases...))
		b, err := json.Marshal(m.Document(map[string]string{
			"scenario": spec.Scenario,
			"steps":    strconv.Itoa(spec.Steps),
			"backend":  "serial",
			"source":   "local",
		}, &trace.POPComparison{Measured: m.Metrics.Report()}))
		if err == nil {
			err = os.WriteFile(o.traceOut, b, 0o644)
		}
		if err != nil {
			return res, fmt.Errorf("writing -trace-out: %w", err)
		}
		fmt.Printf("measured trace written: %s (open in Perfetto or chrome://tracing)\n", o.traceOut)
	}
	if o.verify {
		printReport(res.Report)
		if !res.Report.Pass {
			return res, fmt.Errorf("verification failed: %s", failedChecks(res.Report))
		}
	}
	return res, nil
}

// printReport renders the verification report for terminal consumption.
func printReport(rep *verify.Report) {
	refName := rep.Reference
	if refName == "" {
		refName = "(none: conservation only)"
	}
	fmt.Printf("\nverification report: scenario=%s reference=%s t=%.6f particles=%d compared=%d\n",
		rep.Scenario, refName, rep.SimTime, rep.Particles, rep.Compared)
	if len(rep.Fields) > 0 {
		fmt.Printf("  %-9s %10s %10s %10s | %10s %10s %10s\n",
			"field", "L1", "L2", "Linf", "trim-L1", "trim-L2", "trim-Linf")
		for _, f := range rep.Fields {
			fmt.Printf("  %-9s %10.4f %10.4f %10.4f | %10.4f %10.4f %10.4f\n",
				f.Field, f.L1, f.L2, f.LInf, f.TrimmedL1, f.TrimmedL2, f.TrimmedLInf)
		}
	}
	if rep.Plateau != nil {
		fmt.Printf("  plateau: analytic=%.5f measured=%.5f relerr=%.2f%% (%d particles)\n",
			rep.Plateau.Analytic, rep.Plateau.Measured, 100*rep.Plateau.RelError, rep.Plateau.Particles)
	}
	fmt.Printf("  conservation drift: %s\n", rep.Conservation)
	for _, c := range rep.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Printf("  check %-22s %.4g <= %.4g  %s\n", c.Name, c.Value, c.Limit, status)
	}
	overall := "PASS"
	if !rep.Pass {
		overall = "FAIL"
	}
	fmt.Printf("  overall: %s\n", overall)
}

// failedChecks summarizes the failing checks for the error message.
func failedChecks(rep *verify.Report) string {
	var parts []string
	for _, c := range rep.Checks {
		if !c.Pass {
			parts = append(parts, fmt.Sprintf("%s %.4g > %.4g", c.Name, c.Value, c.Limit))
		}
	}
	return strings.Join(parts, "; ")
}
