package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{1000, 99, 990},  // rank 990, exactly 10 beyond
		{999, 99, 0},     // rank 990, 9 beyond
		{1010, 99, 1000}, // rank 1000
		{20, 50, 10},     // rank 10, 10 beyond
		{19, 50, 0},      // rank 10, 9 beyond
		{10, 1, 0},       // rank 1, 9 beyond
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refusal", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", c.p, c.n, got, err, c.want)
		}
	}
	if _, err := percentile(seq(2000), 100); err == nil {
		t.Error("p100 accepted")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

// small is sim-adapt-churn shrunk to two neighbourhoods per pass, with
// enough arrivals for a p99; it exercises every sim layer, adapt and
// admit too.
func small() simWorkload {
	w := adaptChurn
	w.horizon, w.warmup, w.panel = 700, 20, 2
	return w
}

// exact are the metrics a run computes from simulated state alone.
var exact = map[bool][]string{
	false: {"admission_ratio", "qos_distance", "survival_ratio"},
	true: {
		"sim.events_per_session", "radio.deliveries_per_session", "radio.bytes_per_session",
		"core.cfps_per_session", "core.proposals_per_cfp", "core.accept_ratio",
		"adapt.actions_per_session", "adapt.kills_per_session",
		"admit.yield_steps_per_attempt", "admit.yield_revert_ratio",
		"trace.events_per_session",
	},
}

func TestSameSeedRepeatsExactMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var runs []*outcome
		for i := 0; i < 2; i++ {
			out, err := runSim(small(), runConfig{seed: 7, seconds: 0.01, trace: traced, log: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.broken {
				t.Fatalf("trace %v: %d failed: %v", traced, out.failed, out.failures)
			}
			runs = append(runs, out)
		}
		for _, m := range exact[traced] {
			a, b := runs[0].metrics[m], runs[1].metrics[m]
			if a != b {
				t.Errorf("trace %v: %s = %v, then %v", traced, m, a, b)
			}
			// The shrunk workload must reach every layer it counts.
			if a == 0 {
				t.Errorf("trace %v: %s = 0 on the churn workload", traced, m)
			}
		}
	}
}

func TestRunPrintsEveryMetric(t *testing.T) {
	workloads["test-small"] = func(rc runConfig) (*outcome, error) { return runSim(small(), rc) }
	defer delete(workloads, "test-small")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "test-small", "--seed", "3", "--seconds", "0.01", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	for m, unit := range endToEnd {
		if got := res.Metrics[m]; got.Unit != unit || got.Value <= 0 {
			t.Errorf("%s = %+v", m, got)
		}
	}
	if code := run([]string{"--workload", "nope"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("unknown workload: exit %d", code)
	}
}

// TestBenchmarkJSONMatchesPrinted keeps BENCHMARK.json, one directory
// up, in step with the names and units perfbench prints.
func TestBenchmarkJSONMatchesPrinted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, perfbench %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s unknown to perfbench", w.Name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed map[string]string) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench prints %d", kind, len(listed), len(printed))
		}
		for _, m := range listed {
			if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s [%s] not printed by perfbench (unit %q)", kind, m.Name, m.Unit, unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
