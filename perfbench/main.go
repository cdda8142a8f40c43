// Command perfbench is the repository benchmark. It drives one workload
// through the public APIs of the session engine or the TCP fabric,
// checks that the outputs are correct, and prints every metric by name
// with its unit. The last stdout line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// every trace hook off; with --trace 1 they are the per-layer counts,
// host costs and spans, from an untraced and a separate traced run.
//
//	perfbench --workload sim-adapt-churn --seed 1 --seconds 55 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// endToEnd lists the end-to-end metrics and their units; every workload
// reports all of them under --trace 0.
var endToEnd = map[string]string{
	"setup_s":          "s",
	"sessions_per_s":   "1/s",
	"mem_peak_mb":      "MB",
	"admission_ratio":  "ratio",
	"qos_distance":     "distance",
	"survival_ratio":   "ratio",
	"formation_p50_ms": "ms",
	"formation_p99_ms": "ms",
}

// perLayer lists the per-layer metrics and their units; every workload
// reports all of them under --trace 1. A layer a workload never runs
// reads 0 on its counts.
var perLayer = map[string]string{
	"sim.events_per_session":          "count",
	"sim.ns_per_event":                "ns",
	"sim.push_pop_ns":                 "ns",
	"radio.deliveries_per_session":    "count",
	"radio.bytes_per_session":         "B",
	"radio.delivery_ns":               "ns",
	"core.cfps_per_session":           "count",
	"core.proposals_per_cfp":          "ratio",
	"core.accept_ratio":               "ratio",
	"core.cfp_cold_ns":                "ns",
	"core.cfp_warm_ns":                "ns",
	"core.proposal_ns":                "ns",
	"core.select_ns":                  "ns",
	"resource.available_ns":           "ns",
	"resource.reserve_release_ns":     "ns",
	"adapt.actions_per_session":       "count",
	"adapt.kills_per_session":         "count",
	"adapt.tick_ns":                   "ns",
	"adapt.epoch_scan_ns":             "ns",
	"admit.yield_steps_per_attempt":   "count",
	"admit.yield_revert_ratio":        "ratio",
	"admit.yield_ns":                  "ns",
	"session.alloc_bytes_per_session": "B",
	"session.allocs_per_session":      "count",
	"net.frames_per_formation":        "count",
	"net.overflows":                   "count",
	"net.send_errors":                 "count",
	"net.send_ns":                     "ns",
	"proto.encode_ns_per_frame":       "ns",
	"proto.decode_ns_per_frame":       "ns",
	"proto.bytes_per_frame":           "B",
	"trace.events_per_session":        "count",
	"trace.overhead_ratio":            "ratio",
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	log     io.Writer // human-readable progress and metric lines
}

// outcome is a finished workload run. attempted counts operations (sim
// runs of one neighbourhood, or TCP formations); failed counts those
// that errored or failed a correctness check, each with a line in
// failures. broken is set when a failure is not explained by wall-clock
// timing; the run is then reported incorrect.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string
	broken    bool
}

// fail records a failed operation that breaks a correctness check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.broken = true
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// late records a failed operation whose wrong result follows from a
// message that missed its protocol window on the wall clock: it counts
// in failed, but the program's logic did nothing wrong.
func (o *outcome) late(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, "late window: "+fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig) (*outcome, error){
	"sim-adapt-churn": func(rc runConfig) (*outcome, error) { return runSim(adaptChurn, rc) },
	"tcp-loopback":    runTCP,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sim-adapt-churn or tcp-loopback")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 55, "measured wall time of the run")
	traceOn := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traceOn)
		return 2
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *traceOn == 1, log: stdout}
	start := time.Now()
	out, err := drive(rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	want := endToEnd
	if rc.trace {
		want = perLayer
	}
	res := resultOut{
		Correct:   !out.broken,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricOut, len(want)),
	}
	for m, unit := range want {
		v, ok := out.metrics[m]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s missing or not finite (%v)\n", *name, m, v)
			return 1
		}
		res.Metrics[m] = metricOut{Value: v, Unit: unit}
	}
	for _, f := range out.failures {
		fmt.Fprintf(stdout, "FAILED %s\n", f)
	}
	printMetrics(stdout, res.Metrics)
	fmt.Fprintf(stdout, "%-34s %14.6g %s\n", "failed_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	fmt.Fprintf(stdout, "# %s seed %d trace %d: %d attempted, %d failed, %.1fs wall\n",
		*name, *seed, *traceOn, out.attempted, out.failed, time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func printMetrics(w io.Writer, ms map[string]metricOut) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
