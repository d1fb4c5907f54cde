package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestCatalogNamesValid(t *testing.T) {
	if err := validateCatalog(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
}

func TestValidatorRejects(t *testing.T) {
	for _, d := range []metricDef{
		{Name: "bad name", Unit: "s", Better: "lower"},
		{Name: ".leading", Unit: "s", Better: "lower"},
		{Name: "ünicode", Unit: "s", Better: "lower"},
		{Name: "x", Unit: "bad unit", Better: "lower"},
		{Name: "x", Unit: "s", Better: "sideways"},
		{Name: "a1234567890123456789012345678901234567890123456789012345678901234", Unit: "s", Better: "lower"},
	} {
		if err := validateCatalog([]metricDef{d}); err == nil {
			t.Errorf("%+v accepted", d)
		}
	}
	dup := []metricDef{{Name: "a", Unit: "s", Better: "lower"}, {Name: "a", Unit: "s", Better: "lower"}}
	if err := validateCatalog(dup); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := validateCatalog([]metricDef{{Name: "serve.queue_wait_ms_p99", Unit: "1/s", Better: "higher"}}); err != nil {
		t.Errorf("valid metric rejected: %v", err)
	}
}

// BENCHMARK.json at the repository root declares the same metrics, in
// the same order, with the same units, directions and bounds as the
// catalog the benchmark prints.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, catalog %d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		j := spec.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalog %+v", i, j, d)
		}
	}
	for i, d := range perLayer {
		j := spec.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalog %+v", i, j, d)
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
