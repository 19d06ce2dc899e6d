package runloop

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/scenario"
)

// engineProbes is every EngineVersion with its probe digest, oldest first.
// A change that moves the probe appends a line with a new version (and
// bumps EngineVersion to it); no line is ever edited.
var engineProbes = []struct{ version, digest string }{
	{"1", "cf78c23c8088f8b5caf591033e7bc4ae9fb2735e958d9f5f50d64853e6802ca4"},
}

// engineProbe digests what a result is a function of besides its spec: the
// final state, particles in ID order, of every registered scenario at
// N ≈ 216 after 3 serial steps, then the canonical JSON of the chunk size,
// the neutral cost calibration, the modeled machines (their topology factor
// sampled across node counts) and every parent code's cost of both tests.
func engineProbe(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, name := range scenario.Names() {
		spec, err := scenario.JobSpec{
			Spec: scenario.Spec{Scenario: name, Params: scenario.Params{N: 216}, Steps: 3},
			Exec: scenario.Exec{Backend: scenario.BackendSerial},
		}.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(spec, Env{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ps := res.PS
		idx := make([]int, ps.NLocal)
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(ps.ID[a], ps.ID[b]) })
		h.Write([]byte(name))
		if _, err := ps.Select(idx).WriteTo(h); err != nil {
			t.Fatal(err)
		}
	}

	type machine struct {
		perfmodel.Machine
		TopologyFactor []float64
	}
	var machines []machine
	for _, name := range []string{"daint", "marenostrum"} {
		m, err := perfmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mm := machine{Machine: *m}
		mm.Machine.TopologyFactor = nil
		for _, nodes := range []int{1, 16, 96, 97, 1024} {
			mm.TopologyFactor = append(mm.TopologyFactor, m.TopologyFactor(nodes))
		}
		machines = append(machines, mm)
	}
	costs := map[string]core.CodeCost{}
	for _, name := range []string{"sphynx", "changa", "sphflow"} {
		c, err := codes.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, test := range []codes.Test{codes.SquarePatch, codes.Evrard} {
			costs[name+"/"+string(test)] = c.Cost(test)
		}
	}
	b, err := json.Marshal(struct {
		DefaultChunkSteps int
		Neutral           core.CodeCost
		Machines          []machine
		Costs             map[string]core.CodeCost
	}{DefaultChunkSteps, neutralCost(), machines, costs})
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// TestEngineProbePinned: the probe's digest is the golden of the current
// EngineVersion, so a change that moves what a spec computes fails here
// until it bumps the version and appends its digest.
func TestEngineProbePinned(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range engineProbes {
		if seen[p.version] || seen[p.digest] {
			t.Fatalf("engine version %q or its digest appears twice: a moved probe needs a new version and a new line", p.version)
		}
		seen[p.version], seen[p.digest] = true, true
	}
	last := engineProbes[len(engineProbes)-1]
	if last.version != EngineVersion {
		t.Fatalf("EngineVersion %q, newest golden is for %q", EngineVersion, last.version)
	}
	if got := engineProbe(t); got != last.digest {
		t.Fatalf("engine probe %s, golden of version %q %s: the engine changed what a spec computes; bump EngineVersion and append the new digest", got, last.version, last.digest)
	}
}
