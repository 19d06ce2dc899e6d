package server

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/conserve"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/part"
	"repro/internal/runloop"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/verify"
)

// directResult is what a served job has to equal: the final state in the
// snapshot encoding, the report without its wall-clock spans, the track.
type directResult struct {
	snapshot []byte
	report   []byte
	track    telemetry.Track
}

// directSample is the step -> sample mapping of a served job, restated: the
// report counts completed steps from zero and time from the start of the
// job, the sample counts completed steps.
func directSample(initial conserve.State, rep core.StepReport, cons conserve.State,
	imbalance float64, phases map[string]float64) telemetry.Sample {

	d := conserve.Compare(initial, cons)
	return telemetry.Sample{
		Step: rep.Step + 1, Time: rep.Time, DT: rep.DT,
		MassDrift: d.Mass, MomentumDrift: d.Momentum, AngMomDrift: d.AngMom, EnergyDrift: d.Energy,
		HMin: rep.HMin, HMax: rep.HMax,
		NbrMin: rep.MinNeighbors, NbrMax: rep.MaxNeighbors, NbrMean: rep.MeanNeighbors,
		Imbalance: imbalance, Phases: phases,
	}
}

// runDirect is the reference implementation of "run this canonical spec":
// the engine entry points, chunks of runloop.DefaultChunkSteps steps, a
// synchronized state at every chunk end, verify.Evaluate on the result. A
// serial run keeps one Sim across chunks; killAt > 0 interrupts it after
// that many steps, sends the synchronized state through the checkpoint
// encoding and continues with a new Sim, which is what a kill and the
// resume from its checkpoint do.
func runDirect(t *testing.T, spec scenario.JobSpec, killAt int) directResult {
	t.Helper()
	sc, err := scenario.Get(spec.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	ps, cfg, err := sc.Generate(spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	initial := conserve.Measure(ps, nil)
	rec := telemetry.NewRecorder(nil)
	machine, cost, _, err := runloop.Shape(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var sim *core.Sim
	var timing *core.RunTiming
	done, simTime := 0, 0.0
	for done < spec.Steps {
		n := min(spec.Steps-done, runloop.DefaultChunkSteps)
		if killAt > done && killAt < done+n {
			n = killAt - done
		}
		if spec.Exec.Backend == scenario.BackendSerial {
			if sim == nil {
				if sim, err = core.New(cfg, ps); err != nil {
					t.Fatal(err)
				}
				sim.StepN, sim.T = done, simTime
				sim.OnStep = func(info core.StepInfo) {
					phases := make(map[string]float64, len(info.PhaseSeconds))
					for ph, v := range info.PhaseSeconds {
						phases[string(ph)] = v
					}
					rec.Add(directSample(initial, info.StepReport, sim.Conservation(), 0, phases))
				}
			}
			startT := sim.T
			if _, err := sim.Run(n, 0); err != nil {
				t.Fatal(err)
			}
			sim.Synchronize()
			ps = sim.PS
			done += n
			simTime += sim.T - startT
			if done == killAt {
				var buf bytes.Buffer
				if _, err := ps.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				ps = part.New(0)
				if _, err := ps.ReadFrom(&buf); err != nil {
					t.Fatal(err)
				}
				sim = nil
			}
			continue
		}
		baseStep, baseTime := done, simTime
		merged, res, err := core.RunParallelCapture(core.ParallelConfig{
			Core:         cfg,
			Machine:      machine,
			Cores:        max(spec.Cores, 1),
			RanksPerNode: spec.RanksPerNode,
			Decomp:       domain.MortonSFC,
			Cost:         cost,
			Steps:        n,
			Ctx:          context.Background(),
			OnSample: func(st core.StepStats) {
				rep := st.StepReport
				rep.Step += baseStep
				rep.Time += baseTime
				rec.Add(directSample(initial, rep, st.Cons, st.Imbalance, map[string]float64{
					trace.PhaseCompute:    st.ComputeSeconds,
					trace.PhaseHalo:       st.HaloSeconds,
					trace.PhaseCollective: st.CollectiveSeconds,
				}))
			},
		}, ps)
		if err != nil {
			t.Fatal(err)
		}
		ps = merged
		done += res.StepsCompleted
		simTime += res.SimTime
		if timing == nil {
			timing = &core.RunTiming{}
		}
		timing.Merge(res.Timing)
	}

	var out directResult
	var buf bytes.Buffer
	if _, err := ps.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out.snapshot = buf.Bytes()
	sol, refErr := sc.BuildReference(spec.Params)
	rep := verify.Evaluate(verify.Input{
		Scenario:     spec.Scenario,
		PS:           ps,
		SimTime:      simTime,
		Solution:     sol,
		ReferenceErr: refErr,
		EOS:          cfg.SPH.EOS,
		Thresholds:   sc.Accept,
		Initial:      initial,
		HaveInitial:  true,
	})
	out.report, err = json.Marshal(struct {
		*verify.Report
		Timing *core.RunTiming `json:"timing,omitempty"`
	}{rep, timing})
	if err != nil {
		t.Fatal(err)
	}
	out.track = rec.TrackSnapshot()
	return out
}

// withoutSpans cuts the trailing "spans" member (wall-clock seconds, last
// key of the persisted report) off report JSON.
func withoutSpans(t *testing.T, report []byte) []byte {
	t.Helper()
	i := bytes.LastIndex(report, []byte(`,"spans":`))
	if i < 0 {
		t.Fatalf("persisted report has no spans member: %s", report)
	}
	return append(report[:i:i], '}')
}

// trackBytes renders a track for comparison. A serial sample's phases are
// wall-clock seconds per workflow letter: the letters are compared, the
// seconds zeroed. A distributed sample's are modeled and compared as is.
func trackBytes(t *testing.T, track telemetry.Track, wallClock bool) []byte {
	t.Helper()
	if wallClock {
		for _, smp := range track.Samples {
			for ph := range smp.Phases {
				smp.Phases[ph] = 0
			}
		}
	}
	b, err := json.Marshal(track)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServedEqualsDirect is the executor's contract: whatever code path a
// served job takes, its snapshot, its persisted report (less the wall-clock
// spans) and its telemetry track are, byte for byte, what runDirect computes
// from the engine entry points — on both backends, across a chunk boundary,
// with and without gravity, and through a kill and the resume from its
// checkpoint.
func TestServedEqualsDirect(t *testing.T) {
	serial := func(spec scenario.JobSpec) scenario.JobSpec {
		spec.Exec = scenario.Exec{Backend: scenario.BackendSerial}
		return spec
	}
	evrard := func(steps int) scenario.JobSpec {
		return serial(scenario.JobSpec{Spec: scenario.Spec{
			Scenario: "evrard",
			Params:   scenario.Params{N: 500, NNeighbors: 30},
			Steps:    steps,
		}})
	}
	for _, tc := range []struct {
		name   string
		spec   scenario.JobSpec
		killAt int
	}{
		{"sod/serial", serial(sodSpec(12)), 0},
		{"sod/cores4", sodSpec(12), 0},
		{"sedov/serial/killed", serial(sedovSpec(22)), 13},
		{"evrard/serial/one-chunk", evrard(3), 0},
		{"evrard/serial/two-chunks", evrard(12), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The kill is issued from the per-step hook of the step it
			// follows, so the run stops after exactly killAt steps.
			var s *Server
			id := make(chan string, 1)
			killed := false // only the one worker goroutine touches it
			s = New(Options{
				Store:   tempStore(t),
				Workers: 1,
				FaultInjection: func(step int, _ *part.Set) {
					if step != tc.killAt || killed {
						return
					}
					killed = true
					if err := s.Kill(<-id); err != nil {
						t.Errorf("kill at step %d: %v", step, err)
					}
				},
			})
			defer s.Close()

			view, err := s.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			id <- view.ID
			final := waitState(t, s, view.ID, StateCompleted, 120*time.Second)
			wantRestarts := 0
			if tc.killAt > 0 {
				wantRestarts = 1
			}
			if final.Restarts != wantRestarts {
				t.Fatalf("restarts=%d, want %d", final.Restarts, wantRestarts)
			}

			want := runDirect(t, final.Spec, tc.killAt)

			snap, ok := s.Snapshot(view.ID)
			if !ok {
				t.Fatal("completed job has no snapshot")
			}
			if got, ref := decodeSnapshot(t, snap).Checksum(), decodeSnapshot(t, want.snapshot).Checksum(); got != ref {
				t.Errorf("snapshot checksum %016x, direct run %016x", got, ref)
			}
			if !bytes.Equal(snap, want.snapshot) {
				t.Error("snapshot bytes differ from the direct run's")
			}

			report, ok := s.Metrics(view.ID)
			if !ok || report == nil {
				t.Fatal("completed job has no report")
			}
			if got := withoutSpans(t, report); !bytes.Equal(got, want.report) {
				t.Errorf("persisted report differs from the direct run's:\nserved: %s\ndirect: %s", got, want.report)
			}

			raw, ok := s.Telemetry(view.ID)
			if !ok || raw == nil {
				t.Fatal("completed job has no telemetry track")
			}
			wallClock := final.Spec.Exec.Backend == scenario.BackendSerial
			got := raw
			if wallClock {
				got = trackBytes(t, decodeTrack(t, raw), true)
			}
			if ref := trackBytes(t, want.track, wallClock); !bytes.Equal(got, ref) {
				t.Errorf("telemetry track differs from the direct run's:\nserved: %s\ndirect: %s", got, ref)
			}
		})
	}
}
