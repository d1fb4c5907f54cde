package benchkit

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testRun parses args into a fresh Run whose failures and exit code are
// captured instead of ending the test binary.
func testRun(t *testing.T, args ...string) (*Run, *bytes.Buffer, *int) {
	t.Helper()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	r := newRun(fs, "unit", "enforce gates")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	code := -1
	r.stderr = &stderr
	r.exit = func(c int) { code = c }
	return r, &stderr, &code
}

func TestGateReportsEveryFailure(t *testing.T) {
	r, stderr, code := testRun(t, "-check")
	r.Gate(false, "first gate %d", 1)
	r.Gate(true, "passing gate")
	r.Gate(false, "second gate %s", "two")
	r.Done()
	out := stderr.String()
	for _, want := range []string{
		"benchunit: CHECK FAILED: first gate 1\n",
		"benchunit: CHECK FAILED: second gate two\n",
		"2 gate(s) failed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stderr %q lacks %q", out, want)
		}
	}
	if strings.Contains(out, "passing gate") {
		t.Errorf("a passing gate was reported: %q", out)
	}
	if *code != 1 {
		t.Fatalf("exit code %d, want 1", *code)
	}
}

func TestGateSingleFailureExitsNonZero(t *testing.T) {
	r, _, code := testRun(t, "-check")
	r.Gate(true, "a")
	r.Gate(false, "b")
	r.Gate(true, "c")
	r.Done()
	if *code != 1 {
		t.Fatalf("exit code %d, want 1", *code)
	}
}

func TestGatesPassOrAreOff(t *testing.T) {
	r, stderr, code := testRun(t, "-check")
	r.Gate(true, "a")
	r.Done()
	if *code != -1 || stderr.Len() != 0 {
		t.Fatalf("all gates passed but exit=%d stderr=%q", *code, stderr)
	}
	// Without -check, gates are not evaluated.
	r, stderr, code = testRun(t)
	r.Gate(false, "ignored")
	r.Done()
	if *code != -1 || stderr.Len() != 0 {
		t.Fatalf("gates off but exit=%d stderr=%q", *code, stderr)
	}
}

func TestFlagsAndHeader(t *testing.T) {
	r, _, _ := testRun(t, "-short", "-o", "x.json")
	if r.Out != "x.json" || !r.Short || r.Check {
		t.Fatalf("parsed %+v", r)
	}
	r, _, _ = testRun(t)
	if r.Out != "BENCH_unit.json" {
		t.Fatalf("default output %q", r.Out)
	}
	if h := r.Header(); h.Schema != 1 || h.Go == "" || h.GoMaxProcs < 1 || h.Short {
		t.Fatalf("header %+v", h)
	}
}

func TestWriteAndCheckSchema(t *testing.T) {
	type report struct {
		Header
		Loss []float64 `json:"loss"`
		Sub  struct {
			A int `json:"a"`
		} `json:"sub"`
	}
	r, _, _ := testRun(t, "-short")
	r.Out = filepath.Join(t.TempDir(), "BENCH_unit.json")
	r.Write(&report{Header: r.Header(), Loss: []float64{1, 2}})
	raw, err := os.ReadFile(r.Out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("{\n  \"schema\": 1,\n  \"go\": ")) || !bytes.HasSuffix(raw, []byte("}\n")) {
		t.Fatalf("report layout:\n%s", raw)
	}
	if err := CheckSchema(r.Out, new(report)); err != nil {
		t.Fatal(err)
	}
	// A key the type lacks is rejected.
	extra := filepath.Join(t.TempDir(), "extra.json")
	if err := os.WriteFile(extra, []byte(`{"schema":1,"stray":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckSchema(extra, new(report)); err == nil {
		t.Fatal("unknown key accepted")
	}
	// A key the file lacks shows up on re-encoding.
	missing := filepath.Join(t.TempDir(), "missing.json")
	if err := os.WriteFile(missing, []byte(`{"schema":1,"go":"","gomaxprocs":1,"short":true,"loss":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckSchema(missing, new(report)); err == nil {
		t.Fatal("missing key accepted")
	}
}

func TestSameBitsAndRound(t *testing.T) {
	nan := math.NaN()
	if !SameBits([]float64{1, nan}, []float64{1, nan}) {
		t.Fatal("identical bits reported different")
	}
	if SameBits([]float64{0}, []float64{math.Copysign(0, -1)}) {
		t.Fatal("+0 and -0 reported bit-identical")
	}
	if SameBits([]float64{1}, []float64{1, 2}) {
		t.Fatal("different lengths reported identical")
	}
	if got := Round(1.23456, 2); got != 1.23 {
		t.Fatalf("Round(1.23456, 2) = %v", got)
	}
	if got := Round(1.2345, 3); got != float64(int(1.2345*1000+0.5))/1000 {
		t.Fatalf("Round(1.2345, 3) = %v", got)
	}
}
