// Command sphexa-scaling regenerates the strong-scaling figures of the
// paper's §5.2 (Figures 1-3): average time per time-step versus core count
// for SPHYNX, ChaNGa, and SPH-flow on modeled Piz Daint and MareNostrum 4,
// with the speedup, POP efficiencies and trimmed Amdahl fit of every curve.
//
//	sphexa-scaling -fig 1                      # all Figure 1 curves
//	sphexa-scaling -code changa -test square   # one curve
//	sphexa-scaling -code sphynx -test evrard -machine marenostrum -exec-n 32000
//	sphexa-scaling -machine daint,marenostrum  # two machines as paired arms
//
// With -server set, the sweep runs as a first-class scaling experiment on a
// sphexa-serve instance (POST /v1/scaling) instead of in-process: members
// execute through the coalescing job pipeline, the result (speedup, POP
// efficiencies, trimmed Amdahl fit) persists in the server's result store,
// and resubmitting the identical ladder is a cache hit.
//
//	sphexa-scaling -server http://127.0.0.1:8080 -scenario sod \
//	    -n 8000 -steps 5 -cores 12,48,192
//	sphexa-scaling -server ... -machine daint,marenostrum    # paired arms
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/codes"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/pkg/client"
)

func main() {
	var (
		fig     = flag.Int("fig", 0, "reproduce a whole paper figure (1, 2, or 3); 0 = single curve")
		code    = flag.String("code", "sphynx", "parent code: sphynx, changa, sphflow (server mode: cost calibration)")
		test    = flag.String("test", "square", "test case: square, evrard")
		machine = flag.String("machine", "daint", "machine model: daint, marenostrum; a comma list runs paired arms on one ladder")
		n       = flag.Int("n", experiments.PaperN, "modeled particle count (server mode default: 8000, executed for real)")
		execN   = flag.Int("exec-n", 64000, "executed particle count (work scaled to -n)")
		steps   = flag.Int("steps", experiments.PaperSteps, "time steps per point")
		cores   = flag.String("cores", "", "comma-separated core counts (default: the figure's ladder; server mode: 12,48,192)")
		weak    = flag.Int("weak", 0, "run WEAK scaling at this many particles/core instead (the paper's declared future work)")

		server = flag.String("server", "", "run the sweep remotely on this sphexa-serve base URL (POST /v1/scaling)")
		scen   = flag.String("scenario", "sod", "server mode: registry scenario to scale")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "sphexa-scaling:", err)
		os.Exit(1)
	}

	parseCores := func(csv string) []int {
		var out []int
		for _, f := range strings.Split(csv, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fail(fmt.Errorf("bad -cores entry %q", f))
			}
			out = append(out, c)
		}
		return out
	}

	machines := strings.Split(strings.ReplaceAll(*machine, " ", ""), ",")
	if *server != "" {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		// The figure harness and work-scaling knobs are offline-only: a
		// server sweep is one scenario ladder, not a paper figure. Reject
		// rather than silently ignore them.
		for _, offline := range []string{"fig", "test", "exec-n"} {
			if set[offline] {
				fail(fmt.Errorf("-%s is offline-only; with -server use -scenario, -cores, -n, -steps, -weak, -machine", offline))
			}
		}
		// The offline defaults model 1e6 particles via WorkScale; server
		// members execute their N for real, so default to a tractable run.
		if !set["n"] {
			*n = 8000
		}
		ladder := []int{12, 48, 192}
		if *cores != "" {
			ladder = parseCores(*cores)
		}
		if err := runRemote(*server, *scen, *code, machines,
			ladder, *n, *steps, *weak); err != nil {
			fail(err)
		}
		return
	}

	opt := experiments.Options{N: *n, ExecN: *execN, Steps: *steps}
	if *cores != "" {
		opt.Cores = parseCores(*cores)
	}

	one := func(r *experiments.ScalingResult, err error) ([]*experiments.ScalingResult, error) {
		return []*experiments.ScalingResult{r}, err
	}
	var (
		results []*experiments.ScalingResult
		err     error
	)
	switch {
	case *weak > 0:
		results, err = one(experiments.RunWeakScaling(*code, codes.Test(*test), machines, *weak, opt))
	case *fig == 0:
		results, err = one(experiments.RunScaling(*code, codes.Test(*test), machines, opt))
	case *fig == 1:
		results, err = experiments.Fig1(opt)
	case *fig == 2:
		results, err = experiments.Fig2(opt)
	case *fig == 3:
		results, err = experiments.Fig3(opt)
	default:
		err = fmt.Errorf("no figure %d (paper has 1-3 as scaling figures)", *fig)
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("work modeled from %d executed particles, %d steps per point\n\n", *execN, *steps)
	for _, r := range results {
		fmt.Println(r.Format())
	}
}

// remoteTimeout is the overall deadline of a server-mode sweep.
const remoteTimeout = 15 * time.Minute

// runRemote submits the ladder as a /v1/scaling experiment and prints the
// aggregated result: one machine is the base's, several are paired arms.
func runRemote(addr, scen, cost string, machines []string,
	ladder []int, n, steps, weak int) error {

	ctx, cancel := context.WithTimeout(context.Background(), remoteTimeout)
	defer cancel()
	c := client.New(addr, client.WithRetry(client.RetryPolicy{MaxAttempts: 5}))

	sw := experiments.ScalingSweep{
		Base: scenario.JobSpec{
			Spec: scenario.Spec{Scenario: scen, Params: scenario.Params{N: n}, Steps: steps},
			Exec: scenario.Exec{Machine: machines[0], Cost: cost},
		},
		Cores: ladder,
	}
	if weak > 0 {
		sw.Mode = experiments.ScalingWeak
		sw.ParticlesPerCore = weak
		sw.Base.Params.N = 0 // the ladder defines it
	}
	if len(machines) > 1 {
		sw.Base.Exec = scenario.Exec{}
		for _, m := range machines {
			sw.Arms = append(sw.Arms, experiments.ScalingArm{
				Exec: scenario.Exec{Machine: m, Cost: cost},
			})
		}
	}

	scl, err := c.SubmitScaling(ctx, sw)
	if err != nil {
		return err
	}
	fmt.Printf("scaling experiment %s (%s, cores %v): %s\n", scl.ID, scen, ladder, scl.State)
	if scl, err = c.WaitScaling(ctx, scl.ID); err != nil {
		return err
	}
	if scl.State != client.StateCompleted {
		return fmt.Errorf("scaling experiment ended %s: %s", scl.State, scl.Error)
	}
	if scl.CacheHit {
		fmt.Println("(served from the persisted result — cache hit)")
	}
	if scl.Result == nil {
		return fmt.Errorf("completed scaling experiment carries no result")
	}
	fmt.Print(scl.Result.Format())
	return nil
}
