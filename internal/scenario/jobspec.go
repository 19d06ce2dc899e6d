package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/codes"
	"repro/internal/perfmodel"
)

// Execution backends. BackendParallel is the distributed engine
// (core.RunParallelCapture over the simulated-MPI transport with a modeled
// machine); BackendSerial is the shared-memory engine (core.Sim) with no
// machine model at all.
const (
	BackendParallel = "parallel"
	BackendSerial   = "serial"
)

// Exec is the execution section of a JobSpec: which engine runs the job and
// under which performance calibration. It changes how (and how fast, in
// modeled time) a result is computed but never the physics; it is still part
// of the job's identity — the canonical hash covers it, so the result store
// never conflates results computed under different backends.
type Exec struct {
	// Backend selects the engine: "parallel" (default) or "serial".
	Backend string `json:"backend,omitempty"`
	// Machine names the modeled machine (perfmodel.ByName) for the parallel
	// backend; empty means Piz Daint (runloop.Shape), yet hashes apart from
	// an explicit "daint". Aliases canonicalize ("pizdaint" and "daint" are
	// the same machine, and hash identically).
	Machine string `json:"machine,omitempty"`
	// Cost names a parent-code cost calibration (codes.ByName) for the
	// parallel backend's modeled phase rates; empty means the neutral
	// calibration (runloop.Shape).
	Cost string `json:"cost,omitempty"`
}

// IsZero reports the fully-default execution section (the one legacy specs
// imply).
func (e Exec) IsZero() bool { return e == Exec{} }

// Canonical validates the section and normalizes every field to its
// canonical spelling, mapping explicit defaults back to the zero value so
// that "the default, spelled out" and "the default, omitted" hash
// identically.
func (e Exec) Canonical() (Exec, error) {
	switch e.Backend {
	case "", BackendParallel:
		e.Backend = ""
	case BackendSerial:
	default:
		return e, fmt.Errorf("scenario: unknown backend %q (have %s, %s)",
			e.Backend, BackendParallel, BackendSerial)
	}
	if e.Machine != "" {
		name, err := perfmodel.CanonicalName(e.Machine)
		if err != nil {
			return e, fmt.Errorf("scenario: exec machine: %w", err)
		}
		e.Machine = name
	}
	if e.Cost != "" {
		name, err := codes.CanonicalName(e.Cost)
		if err != nil {
			return e, fmt.Errorf("scenario: exec cost calibration: %w", err)
		}
		e.Cost = name
	}
	if e.Backend == BackendSerial && (e.Machine != "" || e.Cost != "") {
		return e, fmt.Errorf("scenario: the serial backend takes no machine model or cost calibration")
	}
	return e, nil
}

// JobSpec is the typed job submission of the /v1 API: the scenario spec
// (what to simulate) composed with an execution section (how to run it).
// The JSON encoding is flat — a legacy bare Spec body decodes as a JobSpec
// with the default execution — and the canonical hash of a default-exec
// JobSpec equals the legacy Spec hash, so results persisted before the
// execution section existed stay addressable.
type JobSpec struct {
	Spec
	// Exec selects the backend; the zero value (omitted section) is the
	// parallel engine on Piz Daint with the neutral calibration. omitzero
	// keeps the canonical encoding of the default section byte-identical
	// to a bare Spec, which is what preserves legacy hashes.
	Exec Exec `json:"exec,omitzero"`
}

// Canonical resolves the scenario spec against the registry defaults and
// normalizes the execution section. Under the serial backend the
// parallel-only run-shape fields (Cores, RanksPerNode) are zeroed: they
// cannot affect a shared-memory run, so specs differing only in them must
// canonicalize — and hash, and cache — identically.
func (js JobSpec) Canonical() (JobSpec, error) {
	c, err := js.Spec.Canonical()
	if err != nil {
		return js, err
	}
	js.Spec = c
	e, err := js.Exec.Canonical()
	if err != nil {
		return js, err
	}
	js.Exec = e
	if js.Exec.Backend == BackendSerial {
		js.Cores, js.RanksPerNode = 0, 0
	}
	return js, nil
}

// Hash returns the hex SHA-256 of the canonical JobSpec encoding. A
// default execution section is omitted from the encoding, so the hash of a
// legacy spec is unchanged; any non-default section extends the encoding
// and therefore changes the hash.
func (js JobSpec) Hash() (string, error) {
	_, h, err := js.CanonicalHash()
	return h, err
}

// CanonicalHash resolves and hashes in one pass (the job server keys its
// cache on the hash and runs the canonical spec).
func (js JobSpec) CanonicalHash() (JobSpec, string, error) {
	c, err := js.Canonical()
	if err != nil {
		return js, "", err
	}
	b, err := json.Marshal(c)
	if err != nil {
		return js, "", err
	}
	sum := sha256.Sum256(b)
	return c, hex.EncodeToString(sum[:]), nil
}
