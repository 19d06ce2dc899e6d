// Package scenario is the named-workload registry of the mini-app: every
// initial-condition generator in internal/ic is published as a parameterized
// Scenario spec, so binaries, tests, and the job server all reach workloads
// through one interface (scenario.Get("sedov").Generate(params)) instead of
// per-binary switch statements. Specs hash canonically, which is what makes
// identical jobs identifiable for result caching and deduplication.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/part"
	"repro/internal/verify"
)

// Params parameterizes one scenario instance. N and NNeighbors are common
// to every workload; scenario-specific knobs live in Extra under names the
// scenario declares in its defaults (unknown keys are rejected so two specs
// that hash differently really are different jobs).
type Params struct {
	// N is the approximate particle count (generators round to lattice
	// sides, so the realized count can differ).
	N int `json:"n"`
	// NNeighbors is the target SPH neighbor count.
	NNeighbors int `json:"nNeighbors"`
	// Extra holds scenario-specific knobs (e.g. sedov's "energy").
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Scenario is one registered workload: a named, documented initial-condition
// generator that yields both the particle set and the physics configuration
// (EOS, gravity, boundaries) the workload requires. Callers may override
// engine choices (kernel, gradients, stepping) on the returned core.Config.
type Scenario struct {
	Name        string
	Description string
	// Defaults are the canonical parameters; Generate fills unset fields
	// from them.
	Defaults Params
	// Build realizes the workload from fully-resolved parameters, filling
	// and returning into (reset first; nil: a new set).
	Build func(p Params, into *part.Set) (*part.Set, core.Config, error)
	// Reference, when non-nil, constructs the scenario's analytic
	// reference solution for fully-resolved parameters; internal/verify
	// scores final snapshots against it. Scenarios without a closed-form
	// solution leave it nil and are scored on conservation drift alone.
	Reference func(p Params) (analytic.Solution, error)
	// Accept holds the per-scenario acceptance thresholds applied to the
	// verification report (zero fields are unchecked).
	Accept verify.Thresholds
}

// BuildReference resolves p against the defaults and constructs the
// analytic reference solution, or (nil, nil) when the scenario has none.
func (s *Scenario) BuildReference(p Params) (analytic.Solution, error) {
	if s.Reference == nil {
		return nil, nil
	}
	rp, err := s.Resolve(p)
	if err != nil {
		return nil, err
	}
	return s.Reference(rp)
}

// Resolve fills unset fields of p from the scenario defaults and validates
// the Extra keys against the declared knobs.
func (s *Scenario) Resolve(p Params) (Params, error) {
	if p.N <= 0 {
		p.N = s.Defaults.N
	}
	if p.NNeighbors <= 0 {
		p.NNeighbors = s.Defaults.NNeighbors
	}
	merged := make(map[string]float64, len(s.Defaults.Extra))
	for k, v := range s.Defaults.Extra {
		merged[k] = v
	}
	for k, v := range p.Extra {
		if _, ok := merged[k]; !ok {
			return p, fmt.Errorf("scenario %s: unknown parameter %q (have %s)",
				s.Name, k, strings.Join(s.extraKeys(), ", "))
		}
		merged[k] = v
	}
	if len(merged) > 0 {
		p.Extra = merged
	} else {
		p.Extra = nil
	}
	return p, nil
}

func (s *Scenario) extraKeys() []string {
	keys := make([]string, 0, len(s.Defaults.Extra))
	for k := range s.Defaults.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Generate resolves p against the defaults and builds the workload.
func (s *Scenario) Generate(p Params) (*part.Set, core.Config, error) {
	return s.GenerateInto(p, nil)
}

// GenerateInto is Generate filling into (reset first; nil: a new set), for
// a caller that keeps one set from workload to workload.
func (s *Scenario) GenerateInto(p Params, into *part.Set) (*part.Set, core.Config, error) {
	rp, err := s.Resolve(p)
	if err != nil {
		return nil, core.Config{}, err
	}
	return s.Build(rp, into)
}

// --- Registry ----------------------------------------------------------------

var (
	regMu    sync.RWMutex
	registry = map[string]*Scenario{}
)

// Register publishes a scenario under its name; duplicate names panic (a
// programming error, caught at init time).
func Register(s *Scenario) {
	regMu.Lock()
	defer regMu.Unlock()
	if s.Name == "" {
		panic("scenario: Register with empty name")
	}
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", s.Name))
	}
	registry[s.Name] = s
}

// ErrUnknown marks an unregistered scenario name; the HTTP layer maps it to
// a distinct error code (and 404) via errors.Is.
var ErrUnknown = errors.New("scenario: unknown scenario")

// Get returns the named scenario; the error for an unknown name lists every
// registered one and wraps ErrUnknown.
func Get(name string) (*Scenario, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if s, ok := registry[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("%w %q (registered: %s)",
		ErrUnknown, name, strings.Join(namesLocked(), ", "))
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- Canonical spec hashing --------------------------------------------------

// Spec identifies one complete job: the scenario, its parameters, and the
// run shape. Two specs with the same Hash are the same job — the job
// server's result cache and deduplication both key on it.
type Spec struct {
	Scenario string `json:"scenario"`
	Params   Params `json:"params"`
	// Steps is the number of time steps to run.
	Steps int `json:"steps"`
	// Cores is the modeled core count of the distributed run (0 = serial
	// shared-memory semantics with one rank).
	Cores int `json:"cores,omitempty"`
	// RanksPerNode is the rank placement (0 = one rank per node).
	RanksPerNode int `json:"ranksPerNode,omitempty"`
	// Verify optionally overrides the scenario's registered trim quantiles
	// for the verification report (per-field or all at once); nil keeps the
	// registered thresholds. The report is persisted next to the snapshot
	// under the spec hash, so a different trimming is a different job — the
	// canonical hash covers this section (nil marshals away, preserving
	// legacy hashes).
	Verify *VerifySpec `json:"verify,omitempty"`
}

// VerifySpec is the verification section of a Spec: the kept fraction of
// per-particle errors for the trimmed norms, overall and per field. Zero
// fields inherit (field quantile <- TrimQuantile <- scenario registration);
// set fields must be in (0, 1], where 1 disables trimming for that field.
type VerifySpec struct {
	// TrimQuantile is the kept fraction for every field without its own
	// override.
	TrimQuantile float64 `json:"trimQuantile,omitempty"`
	// TrimDensity / TrimVelocity / TrimPressure override one field each.
	TrimDensity  float64 `json:"trimDensity,omitempty"`
	TrimVelocity float64 `json:"trimVelocity,omitempty"`
	TrimPressure float64 `json:"trimPressure,omitempty"`
}

// Canonical validates the section's quantiles and maps an all-zero section
// to nil, so "the default, spelled out as an empty object" and "the
// default, omitted" hash identically.
func (v *VerifySpec) Canonical() (*VerifySpec, error) {
	if v == nil {
		return nil, nil
	}
	for _, q := range []struct {
		name string
		val  float64
	}{
		{"trimQuantile", v.TrimQuantile},
		{"trimDensity", v.TrimDensity},
		{"trimVelocity", v.TrimVelocity},
		{"trimPressure", v.TrimPressure},
	} {
		if q.val < 0 || q.val > 1 {
			return nil, fmt.Errorf("scenario: verify %s %g outside (0, 1] (0 inherits)", q.name, q.val)
		}
	}
	if (*v == VerifySpec{}) {
		return nil, nil
	}
	c := *v
	return &c, nil
}

// Canonical resolves the spec's parameters against the scenario defaults so
// that omitted and explicitly-default parameters hash identically.
func (sp Spec) Canonical() (Spec, error) {
	s, err := Get(sp.Scenario)
	if err != nil {
		return sp, err
	}
	rp, err := s.Resolve(sp.Params)
	if err != nil {
		return sp, err
	}
	sp.Params = rp
	if sp.Steps <= 0 {
		sp.Steps = 1
	}
	v, err := sp.Verify.Canonical()
	if err != nil {
		return sp, err
	}
	sp.Verify = v
	return sp, nil
}

// Hash returns the hex SHA-256 of the canonical spec encoding. Go's JSON
// encoder emits struct fields in declaration order and map keys sorted, so
// the encoding — and therefore the hash — is canonical.
func (sp Spec) Hash() (string, error) {
	_, h, err := sp.CanonicalHash()
	return h, err
}

// CanonicalHash resolves the spec and hashes it in one pass, for callers
// that need both (the job server keys its cache on the hash and runs the
// canonical spec).
func (sp Spec) CanonicalHash() (Spec, string, error) {
	c, err := sp.Canonical()
	if err != nil {
		return sp, "", err
	}
	b, err := json.Marshal(c)
	if err != nil {
		return sp, "", err
	}
	sum := sha256.Sum256(b)
	return c, hex.EncodeToString(sum[:]), nil
}
