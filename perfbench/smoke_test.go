package main

import (
	"bytes"
	"context"
	"testing"
)

// Every workload runs end to end at a tiny shape, plain and traced, and
// reports a correct result carrying every catalog metric.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"lp-mem", "lp-disk", "nc-disk", "lp-serve"} {
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			cfg := config{Workload: name, Seed: 3, Seconds: 1, Trace: trace, Work: t.TempDir(), Tiny: true, Log: &log}
			rep, err := workloads[name](context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, log.String())
			}
			res := rep.result(trace, &log)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := rep.Metrics[d.Name]; !ok {
					t.Errorf("%s trace=%v: %s not measured", name, trace, d.Name)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
			if trace && name == "nc-disk" {
				if rep.Metrics["cpu.negscore_fwd"] != 0 || rep.Metrics["cpu.negscore_bwd"] != 0 {
					t.Errorf("nc-disk attributes CPU to negative scoring: %v / %v",
						rep.Metrics["cpu.negscore_fwd"], rep.Metrics["cpu.negscore_bwd"])
				}
			}
			if trace && name == "lp-mem" && rep.Metrics["check.profile_agrees"] != 1 {
				t.Errorf("lp-mem CPU profile disagrees with the recorded ranking\n%s", log.String())
			}
			if trace && name == "lp-disk" && rep.Metrics["pipeline.load_wait_s"] <= 0 {
				t.Errorf("lp-disk traced load_wait = %v, want > 0", rep.Metrics["pipeline.load_wait_s"])
			}
		}
	}
}
