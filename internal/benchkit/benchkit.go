// Package benchkit is the scaffold shared by the cmd/bench* gate
// commands: the report header every BENCH_*.json starts with, the
// -o/-short/-check flags, fatal-error handling, a gate recorder, the
// JSON writer, and the bitwise and rounding helpers the reports use.
//
// A command looks like:
//
//	run := benchkit.New("eval", "enforce gates (...)")
//	flag.Parse()
//	rep := Report{Header: run.Header(), ...}
//	... measure, benchkit.Must(err) on setup errors ...
//	run.Write(&rep)
//	run.Gate(ok, "what failed: %v", detail)
//	run.Done()
//
// Under -check, Gate records every failed gate and prints it; Done then
// exits 1 if any gate failed, so one run reports all of its failures.
// Without -check gates are not evaluated.
package benchkit

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"sort"
)

// Header is the report preamble. Reports embed it first, so its four
// keys lead every BENCH_*.json.
type Header struct {
	Schema     int    `json:"schema"`
	Go         string `json:"go"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Short      bool   `json:"short"`
}

// Run is one invocation of a gate command: its common flags and its
// gate recorder.
type Run struct {
	// Out is the report path (-o), BENCH_<name>.json by default.
	Out string
	// Short selects the small CI workload (-short).
	Short bool
	// Check turns gate evaluation on (-check).
	Check bool

	name   string
	failed int
	stderr io.Writer
	exit   func(int)
}

// New registers -o, -short and -check on the command line flag set and
// prefixes fatal errors with the command name (bench<name>). checkUsage
// is the -check help text, naming the command's gates. Commands register
// their own extra flags, then call flag.Parse.
func New(name, checkUsage string) *Run {
	log.SetFlags(0)
	log.SetPrefix("bench" + name + ": ")
	return newRun(flag.CommandLine, name, checkUsage)
}

func newRun(fs *flag.FlagSet, name, checkUsage string) *Run {
	r := &Run{name: name, stderr: os.Stderr, exit: os.Exit}
	fs.StringVar(&r.Out, "o", "BENCH_"+name+".json", "output JSON path")
	fs.BoolVar(&r.Short, "short", false, "small workload for CI")
	fs.BoolVar(&r.Check, "check", false, checkUsage)
	return r
}

// Header returns the report header for this run.
func (r *Run) Header() Header {
	return Header{Schema: 1, Go: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0), Short: r.Short}
}

// Must exits the command with err when it is non-nil. It is for setup
// and measurement errors, which end the run; gate failures go to Gate.
func Must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// Write writes rep to r.Out as indented JSON plus a trailing newline.
func (r *Run) Write(rep any) {
	buf, err := json.MarshalIndent(rep, "", "  ")
	Must(err)
	Must(os.WriteFile(r.Out, append(buf, '\n'), 0o644))
}

// Gate records one gate under -check: when ok is false it prints the
// formatted failure and marks the run failed. Without -check it does
// nothing.
func (r *Run) Gate(ok bool, format string, args ...any) {
	if !r.Check || ok {
		return
	}
	r.failed++
	fmt.Fprintf(r.stderr, "bench%s: CHECK FAILED: "+format+"\n", append([]any{r.name}, args...)...)
}

// Done ends gate evaluation under -check: it exits 1 when any gate
// failed and otherwise reports that all gates passed.
func (r *Run) Done() {
	if !r.Check {
		return
	}
	if r.failed > 0 {
		fmt.Fprintf(r.stderr, "bench%s: %d gate(s) failed\n", r.name, r.failed)
		r.exit(1)
		return
	}
	fmt.Printf("check: all %s gates passed\n", r.name)
}

// SameBits reports whether a and b hold the same float64 values bit for
// bit, the equality the reproducibility gates demand of loss
// trajectories.
func SameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Round rounds a non-negative x to the given number of decimal places,
// for report fields.
func Round(x float64, places int) float64 {
	p := math.Pow10(places)
	return float64(int(x*p+0.5)) / p
}

// CheckSchema decodes the report at path into report, rejecting keys the
// report type does not declare, then re-encodes it and requires the same
// set of keys back: a checked-in baseline and its command's Report type
// must agree field for field.
func CheckSchema(path string, report any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(report); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	again, err := json.Marshal(report)
	if err != nil {
		return err
	}
	want, err := keySet(raw)
	if err != nil {
		return err
	}
	got, err := keySet(again)
	if err != nil {
		return err
	}
	var lost, added []string
	for k := range want {
		if !got[k] {
			lost = append(lost, k)
		}
	}
	for k := range got {
		if !want[k] {
			added = append(added, k)
		}
	}
	if len(lost)+len(added) > 0 {
		sort.Strings(lost)
		sort.Strings(added)
		return fmt.Errorf("%s: re-encoding drops keys %v and adds keys %v", path, lost, added)
	}
	return nil
}

// keySet collects every object key path in the JSON document. Array
// elements share their array's path.
func keySet(doc []byte) (map[string]bool, error) {
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		return nil, err
	}
	keys := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, c := range x {
				keys[prefix+"."+k] = true
				walk(prefix+"."+k, c)
			}
		case []any:
			for _, c := range x {
				walk(prefix+"[]", c)
			}
		}
	}
	walk("", v)
	return keys, nil
}
