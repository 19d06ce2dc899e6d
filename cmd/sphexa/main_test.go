package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ft"
	"repro/internal/part"
	"repro/internal/runloop"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sph"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// local runs the command line through the local path.
func local(t *testing.T, args ...string) (runloop.Result, scenario.JobSpec) {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runLocal(o)
	if err != nil {
		t.Fatal(err)
	}
	spec := o.spec
	spec.Exec = scenario.Exec{Backend: scenario.BackendSerial}
	return res, spec
}

// served runs the spec as a job of an in-process server, which chunks it at
// runloop.DefaultChunkSteps like a local run, and returns its persisted
// report without the trailing wall-clock spans, and its snapshot.
func served(t *testing.T, spec scenario.JobSpec) ([]byte, *part.Set) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Options{Workers: 1, Store: st})
	defer s.Close()
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done, _ := s.Done(view.ID)
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("served job did not finish")
	}
	report, ok := s.Metrics(view.ID)
	if !ok || report == nil {
		final, _ := s.Get(view.ID)
		t.Fatalf("served job has no report: %+v", final)
	}
	i := bytes.LastIndex(report, []byte(`,"spans":`))
	if i < 0 {
		t.Fatalf("persisted report has no spans member: %s", report)
	}
	raw, ok := s.Snapshot(view.ID)
	if !ok {
		t.Fatal("served job has no snapshot")
	}
	ps := part.New(0)
	if _, err := ps.ReadFrom(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	return append(report[:i:i], '}'), ps
}

// TestLocalVerifiesTheStateTheServerVerifies: the CI smoke's spec, run
// locally, yields the report the executor yields and a served serial job
// persists — scored on the synchronized final state, not on the staggered
// one a bare Sim.Run leaves.
func TestLocalVerifiesTheStateTheServerVerifies(t *testing.T) {
	res, spec := local(t, "-scenario", "sod", "-n", "1000", "-steps", "10", "-neighbors", "30")

	canonical, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := runloop.Execute(canonical, runloop.Env{Recorder: telemetry.NewRecorder(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Report, direct.Report) {
		t.Errorf("local report differs from the executor's:\nlocal:    %+v\nexecutor: %+v", res.Report, direct.Report)
	}

	got, err := json.Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	want, ps := served(t, spec)
	if !bytes.Equal(got, want) {
		t.Errorf("local report differs from the served serial job's:\nlocal:  %s\nserved: %s", got, want)
	}
	if res.PS.Checksum() != ps.Checksum() {
		t.Errorf("local final state %016x, served %016x", res.PS.Checksum(), ps.Checksum())
	}
}

// TestCheckpointedLocalRunIsServed: a local run chunks like the server, at
// runloop.DefaultChunkSteps whether or not it checkpoints, so a run longer
// than one chunk is still the served serial job — same report, same final
// state — with and without -checkpoint-dir: across one chunk boundary and
// across two and a partial last chunk. Except where the local run's SDC
// detectors stop it, as the served job runs none: at 1000 particles a sod
// tube's free left end blows up at step 14, which stops the local run and
// is stored when served. That row records the divergence; the 25-step run
// that compares equal has 4000 particles, which do not trip.
func TestCheckpointedLocalRunIsServed(t *testing.T) {
	for _, run := range []struct {
		n, steps string
		sdcStep  int // the step the local run's detectors stop it at; 0: none
	}{{"1000", "12", 0}, {"4000", "25", 0}, {"1000", "25", 14}} {
		args := []string{"-scenario", "sod", "-n", run.n, "-steps", run.steps, "-neighbors", "30"}
		o, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		spec := o.spec
		spec.Exec = scenario.Exec{Backend: scenario.BackendSerial}
		want, ps := served(t, spec)
		for _, ckpt := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%s/steps=%s/checkpoint-dir=%v", run.n, run.steps, ckpt), func(t *testing.T) {
				args := args
				if ckpt {
					args = append(args[:len(args):len(args)], "-checkpoint-dir", t.TempDir())
				}
				if run.sdcStep > 0 {
					o, err := parseFlags(args)
					if err != nil {
						t.Fatal(err)
					}
					trip := fmt.Sprintf("SDC detector %q tripped at step %d:", "conservation", run.sdcStep)
					if _, err := runLocal(o); err == nil || !strings.Contains(err.Error(), trip) {
						t.Errorf("local run: %v, want %s…; the served job stored a report", err, trip)
					}
					return
				}
				res, _ := local(t, args...)
				got, err := json.Marshal(res.Report)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("local report differs from the served serial job's:\nlocal:  %s\nserved: %s", got, want)
				}
				if res.PS.Checksum() != ps.Checksum() {
					t.Errorf("local final state %016x, served %016x", res.PS.Checksum(), ps.Checksum())
				}
			})
		}
	}
}

// TestUnsetEngineFlagsInheritScenario: `sphexa -scenario evrard` is the run
// a served evrard job is (the scenario's multipole order, not a flag
// default's), and the engine flags that are given still override.
func TestUnsetEngineFlagsInheritScenario(t *testing.T) {
	args := []string{"-scenario", "evrard", "-n", "500", "-steps", "3", "-neighbors", "30"}
	res, spec := local(t, args...)
	_, ps := served(t, spec)
	if res.PS.Checksum() != ps.Checksum() {
		t.Errorf("local final state %016x, served %016x", res.PS.Checksum(), ps.Checksum())
	}

	o, err := parseFlags(append(args, "-kernel", "wendland-c2", "-gradients", "kd"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Get("evrard")
	if err != nil {
		t.Fatal(err)
	}
	_, cfg, err := sc.Generate(o.spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg
	o.edit(&cfg)
	if cfg.SPH.Kernel.Name() != "wendland-c2" || cfg.SPH.Gradients != sph.KernelDerivatives {
		t.Errorf("kernel=%s gradients=%s after -kernel wendland-c2 -gradients kd",
			cfg.SPH.Kernel.Name(), cfg.SPH.Gradients)
	}
	want.SPH.Kernel, want.SPH.Gradients = cfg.SPH.Kernel, cfg.SPH.Gradients
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("flags that were not given edited the scenario's config:\ngot  %+v\nwant %+v", cfg, want)
	}
}

// TestSteppingIndividualRejected: the engine advances every particle by one
// step, so -stepping takes the two global modes only and says which.
func TestSteppingIndividualRejected(t *testing.T) {
	_, err := parseFlags([]string{"-stepping", "individual"})
	if err == nil {
		t.Fatal("-stepping individual accepted")
	}
	for _, want := range []string{"global", "adaptive"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestRestartNeedsCheckpointDir: -restart restores from -checkpoint-dir, so
// without one the command line is an error, not a run from step 0.
func TestRestartNeedsCheckpointDir(t *testing.T) {
	_, err := parseFlags([]string{"-scenario", "sedov", "-n", "125", "-neighbors", "20", "-steps", "2", "-restart"})
	if err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("-restart without -checkpoint-dir: %v, want an error naming -checkpoint-dir", err)
	}
}

// TestRestartFailures: a -restart that finds nothing to restore is an
// error, and so is one whose checkpoint is of the older SPH1 record format,
// named by its magic.
func TestRestartFailures(t *testing.T) {
	restart := func(dir string) error {
		t.Helper()
		o, err := parseFlags([]string{"-scenario", "sedov", "-n", "125", "-neighbors", "20", "-steps", "10",
			"-checkpoint-dir", dir, "-restart"})
		if err != nil {
			t.Fatal(err)
		}
		_, err = runLocal(o)
		return err
	}
	if err := restart(t.TempDir()); err == nil || !strings.Contains(err.Error(), "runloop: restore:") {
		t.Errorf("missing checkpoint: %v, want a restore error", err)
	}

	dir := t.TempDir()
	ps := part.New(4)
	for i := range ps.Mass {
		ps.Mass[i], ps.H[i] = 1, 1
	}
	if err := (&ft.Checkpointer{Dir: dir}).Write(5, 2.5, ps); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ckpt-000000005.sph")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[bytes.IndexByte(raw, '\n')+1] = '1' // the magic's low byte: "SPH2" becomes "SPH1"
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := restart(dir); err == nil || !strings.Contains(err.Error(), `"SPH1"`) {
		t.Errorf("SPH1 checkpoint: %v, want an error naming the magic", err)
	}
}
