package main

import (
	"testing"

	"repro/internal/benchkit"
)

// TestReportSchema pins the checked-in BENCH_pipeline.json to Report: it
// decodes with no unknown keys and re-encodes to the same key set.
func TestReportSchema(t *testing.T) {
	if err := benchkit.CheckSchema("../../BENCH_pipeline.json", new(Report)); err != nil {
		t.Fatal(err)
	}
}
