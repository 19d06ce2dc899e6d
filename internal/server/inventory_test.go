package server

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestMetricFamilyInventory pins the registry of a fresh server: one row per
// family — type, name, label names — sorted. A family is API (/metricsz, the
// smoke, /statusz read them by name), so adding, dropping or relabeling one
// is a reviewed diff of the golden file, and a family nothing reads has
// nowhere to hide. Every family is registered in newMetrics, so the rows
// are every metric name the server has, and the Prometheus suffix scheme is
// checked on them even when the golden was regenerated with the new name.
func TestMetricFamilyInventory(t *testing.T) {
	s := New(Options{Store: tempStore(t)})
	defer s.Close()
	s.collect()

	var rows []string
	snap := s.Registry().Snapshot()
	for _, f := range snap {
		rows = append(rows, strings.TrimSpace(fmt.Sprintf("%s %s %s", f.Type, f.Name, strings.Join(f.LabelNames, ","))))
	}
	sort.Strings(rows)
	got := []byte(strings.Join(rows, "\n") + "\n")

	const path = "testdata/metric_families.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("metric families differ from %s (go test ./internal/server -run TestMetricFamilyInventory -update rewrites it)\ngot:\n%swant:\n%s",
			path, got, want)
	}

	// Counters end _total, so rate() and dashboards key on it; histograms
	// carry their base unit; no gauge wears the counter suffix, except
	// workers_total: the configured pool size, a static capacity gauge whose
	// name the smoke, /statusz and observability_test already read.
	for _, f := range snap {
		total := strings.HasSuffix(f.Name, "_total")
		switch {
		case f.Type == "counter" && !total:
			t.Errorf("counter %q must end in _total", f.Name)
		case f.Type == "histogram" && !strings.HasSuffix(f.Name, "_seconds") && !strings.HasSuffix(f.Name, "_bytes"):
			t.Errorf("histogram %q must end in _seconds or _bytes", f.Name)
		case f.Type == "gauge" && total && f.Name != "workers_total":
			t.Errorf("gauge %q ends in _total, the counter suffix", f.Name)
		}
	}
}
