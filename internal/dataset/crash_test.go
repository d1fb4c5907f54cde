// Crash-mid-ingest recovery tests: a prep killed partway through its
// output writes leaves payload files without a manifest; re-running
// Ingest over that directory must fail typed (ErrPartialOutput) until
// Force sweeps the wreckage, after which the re-ingested dataset is
// identical to one prepared with no crash at all.
package dataset_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/storage"
)

// exportKG writes the link-prediction fixture as raw TSV files and
// returns the ingest config targeting out.
func exportKG(t *testing.T, out string, parts int) dataset.Config {
	t.Helper()
	g := gen.KG(smallKG())
	exp, err := dataset.Export(g, t.TempDir(), "tsv")
	if err != nil {
		t.Fatal(err)
	}
	return exp.Config(out, "lp", 3, parts)
}

func TestIngestCrashThenForceReingest(t *testing.T) {
	raw := exportKG(t, t.TempDir(), 4)

	// Reference: a clean ingest of the same inputs into a pristine
	// directory, for byte-comparison after recovery.
	cleanDir := t.TempDir()
	clean := raw
	clean.Out = cleanDir
	if _, err := dataset.Ingest(clean); err != nil {
		t.Fatal(err)
	}

	// Crash the prep partway through its output writes. The kill point
	// lands well inside the payload (edges.bin alone takes many writes),
	// so the directory is left with payload files and no manifest.
	crashDir := t.TempDir()
	crashed := raw
	crashed.Out = crashDir
	crashed.FS = fault.NewInjector(nil, fault.Config{Seed: 11, CrashAfterWrites: 3})
	if _, err := dataset.Ingest(crashed); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("crashed ingest: got %v, want ErrCrashed", err)
	}
	if _, err := os.Stat(filepath.Join(crashDir, storage.ManifestName)); !os.IsNotExist(err) {
		t.Fatal("crashed ingest left a manifest; partial output would pass for complete")
	}
	if _, err := storage.OpenDataset(nil, crashDir); err == nil {
		t.Fatal("OpenDataset accepted a crashed prep's directory")
	}

	// Re-running without Force refuses, typed, naming the situation.
	retry := raw
	retry.Out = crashDir
	if _, err := dataset.Ingest(retry); !errors.Is(err, dataset.ErrPartialOutput) {
		t.Fatalf("re-ingest over partial output: got %v, want ErrPartialOutput", err)
	}

	// Force sweeps and re-ingests; the result must match the clean run
	// byte for byte (manifest UUID included — same inputs, same seed).
	retry.Force = true
	if _, err := dataset.Ingest(retry); err != nil {
		t.Fatalf("forced re-ingest: %v", err)
	}
	if _, err := dataset.Validate(crashDir); err != nil {
		t.Fatalf("validate after forced re-ingest: %v", err)
	}
	for _, name := range []string{storage.ManifestName, "edges.bin", "valid_edges.bin", "test_edges.bin", "dict.tsv"} {
		a, err := os.ReadFile(filepath.Join(cleanDir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(crashDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s differs between clean ingest and crash+force re-ingest", name)
		}
	}
	// No scratch files survive the recovery.
	if orphans, err := dataset.OrphanedTemps(crashDir); err != nil || len(orphans) != 0 {
		t.Fatalf("orphaned temps after forced re-ingest: %v (err %v)", orphans, err)
	}
}

// TestIngestOverCompleteDatasetStillAllowed: a directory with a
// manifest is a complete dataset, and overwriting it (deliberate
// re-prep) keeps working without Force.
func TestIngestOverCompleteDatasetStillAllowed(t *testing.T) {
	out := t.TempDir()
	cfg := exportKG(t, out, 4)
	if _, err := dataset.Ingest(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := dataset.Ingest(cfg); err != nil {
		t.Fatalf("re-ingest over a complete dataset: %v", err)
	}
	if _, err := dataset.Validate(out); err != nil {
		t.Fatal(err)
	}
}

// TestOrphanedTempsFlagged: scratch files from a killed prep are
// reported against an otherwise-valid dataset, and SweepTemps removes
// exactly them.
func TestOrphanedTempsFlagged(t *testing.T) {
	out := t.TempDir()
	cfg := exportKG(t, out, 4)
	if _, err := dataset.Ingest(cfg); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mariusprep-spill-12345", ".manifest-777"} {
		if err := os.WriteFile(filepath.Join(out, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	orphans, err := dataset.OrphanedTemps(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 2 {
		t.Fatalf("OrphanedTemps = %v, want both planted temps", orphans)
	}
	// The dataset itself stays valid — temps are a warning, not corruption.
	if _, err := dataset.Validate(out); err != nil {
		t.Fatalf("validate with orphaned temps: %v", err)
	}
	removed, err := dataset.SweepTemps(out)
	if err != nil || len(removed) != 2 {
		t.Fatalf("SweepTemps removed %v (err %v), want both temps", removed, err)
	}
	if orphans, _ := dataset.OrphanedTemps(out); len(orphans) != 0 {
		t.Fatalf("temps survive sweep: %v", orphans)
	}
	if _, err := dataset.Validate(out); err != nil {
		t.Fatalf("validate after sweep: %v", err)
	}
}
