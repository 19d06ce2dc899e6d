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
// nowhere to hide.
func TestMetricFamilyInventory(t *testing.T) {
	s := New(Options{Store: tempStore(t)})
	defer s.Close()
	s.collect()

	var rows []string
	for _, f := range s.Registry().Snapshot() {
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
}
