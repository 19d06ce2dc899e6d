package lintkit

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ObsNames enforces the internal/obs metric naming scheme at every
// Registry constructor call, and the frozen-category rule on trace slice
// emission.
//
// The telemetry surface (/metricsz Prometheus exposition, /statusz
// digests, the smoke tests that assert on family names) treats metric
// names as API. The conventions are Prometheus's: counters end `_total`,
// latency/size histograms end `_seconds`/`_bytes` (base units), and
// metric/label NAMES are compile-time constants so the family space is
// statically known — dynamic names are unbounded-cardinality bugs.
//
// The trace export surface (GET /v1/jobs/{id}/trace, -trace-out) obeys the
// same discipline: every category passed to Perfetto.SliceData must be a
// compile-time constant (slice names are recorded data).
var ObsNames = &Analyzer{
	Name: "obsnames",
	Doc: "obs Registry metric names must be constant and follow the suffix scheme (counters _total; histograms _seconds/_bytes); " +
		"label names must be constants; trace slice categories must be constants",
	Run: runObsNames,
}

func runObsNames(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcObjOf(p.Info, call)
			switch {
			case fn == nil:
			case isRegistryMethod(p, fn):
				checkMetricCall(p, call, fn.Name())
			case isPerfettoSliceData(p, fn):
				checkSliceCall(p, call)
			}
			return true
		})
	}
	return nil
}

// isRegistryMethod reports whether fn is Counter/Gauge/Histogram on the
// obs Registry.
func isRegistryMethod(p *Pass, fn *types.Func) bool {
	switch fn.Name() {
	case "Counter", "Gauge", "Histogram":
	default:
		return false
	}
	named := recvNamed(fn)
	if named == nil || named.Obj().Name() != "Registry" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && (pkg.Path() == p.Module+"/internal/obs" || pkg.Name() == "obs")
}

func checkMetricCall(p *Pass, call *ast.CallExpr, kind string) {
	if len(call.Args) == 0 {
		return
	}
	name, constant := constString(p, call.Args[0])
	if !constant {
		p.Reportf(call.Args[0].Pos(),
			"%s metric name must be a compile-time constant string (the family space must be statically known)", kind)
	} else {
		switch kind {
		case "Counter":
			if !strings.HasSuffix(name, "_total") {
				p.Reportf(call.Args[0].Pos(),
					"counter %q must end in _total (Prometheus counter convention; rate() and dashboards key on it)", name)
			}
		case "Histogram":
			if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
				p.Reportf(call.Args[0].Pos(),
					"histogram %q must end in _seconds or _bytes (base-unit convention)", name)
			}
		case "Gauge":
			if strings.HasSuffix(name, "_total") {
				p.Reportf(call.Args[0].Pos(),
					"gauge %q ends in _total: the counter suffix on a gauge misleads rate()-style queries", name)
			}
		}
	}

	// Label-name arguments: Counter(name, help, labels...) and
	// Gauge(name, help, labels...) start labels at arg 2; Histogram(name,
	// help, buckets, labels...) at arg 3.
	labelStart := 2
	if kind == "Histogram" {
		labelStart = 3
	}
	if call.Ellipsis.IsValid() {
		p.Reportf(call.Ellipsis,
			"%s label names must be spelled as constant strings, not spread from a slice (cardinality must be statically visible)", kind)
		return
	}
	for i := labelStart; i < len(call.Args); i++ {
		if _, ok := constString(p, call.Args[i]); !ok {
			p.Reportf(call.Args[i].Pos(),
				"%s label name must be a compile-time constant string (label names are schema, not data)", kind)
		}
	}
}

// isPerfettoSliceData reports whether fn is SliceData on the trace Perfetto
// builder.
func isPerfettoSliceData(p *Pass, fn *types.Func) bool {
	if fn.Name() != "SliceData" {
		return false
	}
	named := recvNamed(fn)
	if named == nil || named.Obj().Name() != "Perfetto" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && (pkg.Path() == p.Module+"/internal/trace" || pkg.Name() == "trace")
}

// checkSliceCall enforces the frozen-category rule on trace slice emission:
// SliceData(cat, name, ...) takes a constant category.
func checkSliceCall(p *Pass, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	if _, ok := constString(p, call.Args[0]); !ok {
		p.Reportf(call.Args[0].Pos(),
			"SliceData trace category must be a compile-time constant string (categories are frozen API, like metric families)")
	}
}

// constString resolves an expression to its constant string value.
func constString(p *Pass, e ast.Expr) (string, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
