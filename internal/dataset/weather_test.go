package dataset_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/gen"
)

// TestIngestUnderIOWeather is the ingest side of the IO-robustness
// contract: every output write (edges.bin, the spill runs, every
// crcFile payload, the manifest) goes through the fault package's
// retrying transfer loop, so an ingest under seeded transient errors or
// short IO must produce exactly the directory a clean ingest produces —
// same manifest, edges, split files, labels, features and dictionary,
// byte for byte — and that directory must validate. Both the single-run
// path (default memory cap) and the multi-run external sort (a cap that
// forces spills) are covered, for a link-prediction and a
// node-classification input.
// weatherSeeds is the number of injector seeds each weather runs under.
const weatherSeeds = 4

func TestIngestUnderIOWeather(t *testing.T) {
	kg := exportKG(t, "", 4)
	sbm, err := dataset.Export(gen.SBM(smallSBM()), t.TempDir(), "tsv")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		task string
		raw  dataset.Config
	}{{"lp", kg}, {"nc", sbm.Config("", "nc", 7, 4)}}
	weathers := []struct {
		name string
		cfg  fault.Config
	}{
		{"transient", fault.Config{Transient: 0.08}},
		{"short", fault.Config{Short: 0.04}},
	}
	for _, in := range inputs {
		task, raw := in.task, in.raw
		for _, memLimit := range []int64{0, 4 << 10} {
			clean := raw
			clean.Out = t.TempDir()
			clean.MemLimit = memLimit
			st, err := dataset.Ingest(clean)
			if err != nil {
				t.Fatalf("%s clean ingest (mem %d): %v", task, memLimit, err)
			}
			if memLimit > 0 && st.SpillRuns < 2 {
				t.Fatalf("%s: memory cap %d produced %d spill runs, want >= 2", task, memLimit, st.SpillRuns)
			}
			for _, w := range weathers {
				// A default-cap ingest issues only a handful of large
				// writes, so one seed may draw no fault at these rates;
				// several seeds make every configuration see both kinds.
				var fired int64
				for seed := int64(1); seed <= weatherSeeds; seed++ {
					cfg := w.cfg
					cfg.Seed = seed
					inj := fault.NewInjector(nil, cfg)
					got := clean
					got.Out = t.TempDir()
					got.FS = inj
					if _, err := dataset.Ingest(got); err != nil {
						t.Fatalf("%s ingest under %s weather (seed %d, mem %d): %v", task, w.name, seed, memLimit, err)
					}
					if _, err := dataset.Validate(got.Out); err != nil {
						t.Fatalf("%s/%s (seed %d, mem %d): validate: %v", task, w.name, seed, memLimit, err)
					}
					sameDir(t, clean.Out, got.Out)
					tr, sh, _ := inj.Injected()
					fired += tr + sh
				}
				if fired == 0 {
					t.Fatalf("%s/%s (mem %d): no fault fired in %d seeds; the test proves nothing", task, w.name, memLimit, weatherSeeds)
				}
			}
		}
	}
}

// sameDir requires dir b to hold exactly the files of dir a, with
// identical contents.
func sameDir(t *testing.T, a, b string) {
	t.Helper()
	ents, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	other, err := os.ReadDir(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(other) {
		t.Fatalf("%s holds %d files, clean ingest %d", b, len(other), len(ents))
	}
	for _, e := range ents {
		want, err := os.ReadFile(filepath.Join(a, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(b, e.Name()))
		if err != nil {
			t.Fatalf("%s missing under weather: %v", e.Name(), err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s differs from the clean ingest", e.Name())
		}
	}
}
