// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload at the paper's configuration for a fixed wall-clock
// budget, checks the program's outputs, and prints every metric as a
// table followed by one JSON summary line:
//
//	go run ./perfbench --workload testbed-surge --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each was chosen and which metric
// every layer should move):
//
//	testbed-surge   Fig. 3: 8 two-tier apps on 4 servers, App5 surges 40→80 clients
//	dc-consolidate  Fig. 6 shape: IPAC then pMapper over a 7-day, 15-minute trace
//	serve-live      cmd/serve's composition stepped on a tick under open-loop HTTP load
//
// With --trace 0 the run reports the end-to-end metrics, measured with no
// instrumentation beyond the benchmark's own clocks. With --trace 1 it
// reports the per-layer metrics instead, timed around calls into each
// module's public functions from this package, and proves the traced
// driver runs the same program: a mismatch with the untraced path is a
// failed check. Failed checks set "correct" to false in the summary line;
// the exit status is nonzero only when no summary could be produced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's verdict: the JSON summary line plus the extra
// rows only the human-readable table carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// extra holds diagnostics that are printed but not part of the
	// metric set the run reports (workload-specific results, counts).
	extra map[string]metric
	// problems lists every failed check, for standard error.
	problems []string
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, extra: map[string]metric{}}
}

// set records a reported metric.
func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// note records a printed-only diagnostic.
func (r *result) note(name string, v float64, unit string) { r.extra[name] = metric{v, unit} }

// check counts one correctness check, recording a failure when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// tally counts n checks of which the listed ones failed.
func (r *result) tally(n int, failures []string) {
	r.Attempted += n
	r.Failed += len(failures)
	r.problems = append(r.problems, failures...)
}

// run is one workload invocation.
type run struct {
	seed    int64
	budget  time.Duration
	traced  bool
	started time.Time
}

// more reports whether another iteration runs in a run that cycles
// through k inputs: each of the k runs once whatever the budget, and
// repeats run while the wall-clock budget lasts.
func (rn *run) more(done, k int) bool {
	return done < k || time.Since(rn.started) < rn.budget
}

var workloads = map[string]func(*run, *result) error{
	"testbed-surge":  runSurge,
	"dc-consolidate": runConsolidate,
	"serve-live":     runServe,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	os.Exit(mainCode(os.Args[1:]))
}

// mainCode runs the benchmark and returns the process exit status.
func mainCode(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload name: testbed-surge, dc-consolidate or serve-live")
		seed    = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Int("seconds", 30, "wall-clock seconds to measure")
		trace   = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		log.Print("need --workload (testbed-surge|dc-consolidate|serve-live), --seconds >= 1, --trace 0|1")
		return 2
	}
	rn := &run{seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1, started: time.Now()}
	res := newResult()
	if err := fn(rn, res); err != nil {
		log.Printf("%s: %v", *name, err)
		return 1
	}
	res.Correct = res.Failed == 0
	fmt.Print(table(*name, rn, res))
	for _, p := range res.problems {
		log.Printf("check failed: %s", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		log.Printf("encoding result: %v", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

// table renders every metric and diagnostic, one per line, sorted.
func table(name string, rn *run, res *result) string {
	mode := "end-to-end"
	if rn.traced {
		mode = "per-layer (traced)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench workload=%s seed=%d mode=%s checks=%d failed=%d\n",
		name, rn.seed, mode, res.Attempted, res.Failed)
	rows := map[string]metric{}
	for k, v := range res.extra {
		rows[k] = v
	}
	for k, v := range res.Metrics {
		rows[k] = v
	}
	rows["failed_frac"] = metric{float64(res.Failed) / float64(res.Attempted), "frac"}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%-28s %16.6g %s\n", k, rows[k].Value, rows[k].Unit)
	}
	return b.String()
}
