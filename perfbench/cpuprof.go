package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuFamilies are the cpu.* per-layer metrics, in report order; "other"
// takes whatever no rule claims, so the shares sum to 1.
var cpuFamilies = []string{
	"negscore_fwd", "negscore_bwd", "softmax_ce", "dense_matmul", "gather_segment",
	"sampler", "storage", "optimizer", "topk_sort", "gc", "other",
}

// familyRules map a leaf function (pprof's flat attribution) to a
// family; the first matching rule wins. A substring match keeps closures
// (".func1") and inlined copies with their parent. A family whose
// functions no longer exist simply reports 0.
var familyRules = []struct {
	family string
	subs   []string
}{
	{"negscore_fwd", []string{"tensor.gatherMatMulTBRange"}},
	{"negscore_bwd", []string{"tensor.matMulGatherRange"}},
	{"softmax_ce", []string{"tensor.rowSoftmaxRange", "math.Exp", "math.exp", "math.archExp", "SoftmaxCrossEntropy"}},
	// matmulTARange/axpyUnrolled are claimed by negscore_bwd or
	// dense_matmul in attribute, depending on the profile.
	{"dense_matmul", []string{"tensor.matmulRange", "tensor.matmulTBRange", "tensor.matmulTARange", "tensor.axpyUnrolled"}},
	{"gather_segment", []string{"tensor.gatherSegment", "tensor.GatherSegment", "tensor.segmentSumRange", "tensor.scaleSegmentMean", "tensor.gatherRange", "tensor.ScatterAdd"}},
	{"sampler", []string{"repro/internal/sampler.", "repro/internal/graph."}},
	{"storage", []string{"repro/internal/storage.", "syscall.", "internal/poll.", "os.(*File)"}},
	{"optimizer", []string{"nn.(*SparseAdaGrad)", "nn.(*Adam)", "nn.(*AdaGrad)", "nn.(*SGD)", "nn.Apply"}},
	// Sorting; in serving, the top-k selection sorts every entity score.
	{"topk_sort", []string{"decoder.TopK", "sort.", "slices.Sort", "internal/reflectlite.Swapper"}},
	{"gc", []string{"runtime.gc", "runtime.scanobject", "runtime.scanblock", "runtime.greyobject",
		"runtime.markBits", "runtime.findObject", "runtime.markroot", "runtime.(*gcWork)",
		"runtime.(*mspan).sweep", "runtime.sweepone", "runtime.bgsweep", "runtime.wbBuf", "runtime.bulkBarrier"}},
}

// negScoreBwdShared are the dense transpose-A product kernels. Link
// prediction runs the negatives' gradient (scores^T x sources, a
// [negatives x dim] product) through them, and it dwarfs the encoder's
// weight gradients there; node classification runs only the SAGE weight
// gradients through them. The kernels execute on pool goroutines whose
// stacks do not include the caller, so a profile cannot split them by
// caller: they count as negscore_bwd when the profile shows the
// negative-scoring forward kernel at all, as dense_matmul otherwise.
var negScoreBwdShared = []string{"tensor.matmulTARange", "tensor.axpyUnrolled"}

// topEntry is one line of `go tool pprof -top`: flat sample time of a
// leaf function.
type topEntry struct {
	Flat float64 // seconds
	Func string
}

// parseTop parses `go tool pprof -top` text. Lines before the column
// header ("flat  flat%  sum%  cum  cum%") are skipped; each entry keeps
// its flat time and function name (with any " (inline)" suffix removed).
func parseTop(text []byte) ([]topEntry, error) {
	var out []topEntry
	header := false
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := parseDur(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", sc.Text(), err)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		out = append(out, topEntry{Flat: flat, Func: name})
	}
	if !header {
		return nil, fmt.Errorf("pprof -top output has no column header")
	}
	return out, nil
}

// parseDur parses pprof's sample-time column ("1.23s", "450ms", "0").
func parseDur(s string) (float64, error) {
	// Longer suffixes first: "ms" and "mins" also end in "s".
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

// attribute turns flat leaf times into shares per family. The shares sum
// to 1 (all zero for an empty profile).
func attribute(entries []topEntry) map[string]float64 {
	secs := map[string]float64{}
	var total, fwd float64
	for _, e := range entries {
		total += e.Flat
		if strings.Contains(e.Func, "tensor.gatherMatMulTBRange") {
			fwd += e.Flat
		}
	}
	for _, e := range entries {
		fam := "other"
		if fwd > 0 && containsAny(e.Func, negScoreBwdShared) {
			fam = "negscore_bwd"
		} else {
			for _, r := range familyRules {
				if containsAny(e.Func, r.subs) {
					fam = r.family
					break
				}
			}
		}
		secs[fam] += e.Flat
	}
	shares := make(map[string]float64, len(cpuFamilies))
	for _, fam := range cpuFamilies {
		if total > 0 {
			shares[fam] = secs[fam] / total
		} else {
			shares[fam] = 0
		}
	}
	return shares
}

func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// profileShares runs `go tool pprof -top` over a CPU profile written by
// runtime/pprof and attributes its samples to the cpu.* families. It
// also returns the seconds of CPU time the profile's samples add up to.
func profileShares(profile, tmpDir string) (map[string]float64, float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000",
		"-nodefraction=0", "-edgefraction=0", profile)
	cmd.Env = append(cmd.Environ(), "PPROF_TMPDIR="+tmpDir, "GOTOOLCHAIN=local")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	entries, err := parseTop(text)
	if err != nil {
		return nil, 0, err
	}
	var sampled float64
	for _, e := range entries {
		sampled += e.Flat
	}
	return attribute(entries), sampled, nil
}
