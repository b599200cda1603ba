package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// tiny is a configuration small enough for a unit test: one epoch of about
// a second over inputs at 5% of their benchmark size.
func tiny(t *testing.T, workload string, trace, breakExpected bool) config {
	return config{workload: workload, seed: 7, seconds: 1, epochs: 1, trace: trace,
		outDir: t.TempDir(), breakExpected: breakExpected, scale: 0.05}
}

func TestCompareLinesRejectsWrongOutputs(t *testing.T) {
	if err := selfCheckComparator(); err != nil {
		t.Fatal(err)
	}
}

// TestBrokenExpectedAnswerFailsRun is the self-check of the output gate: a
// deliberately wrong expected answer must fail the run.
func TestBrokenExpectedAnswerFailsRun(t *testing.T) {
	_, res, err := execute(tiny(t, "selective", false, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("run with a wrong expected answer: correct=%v failed=%d, want correct=false failed=1", res.Correct, res.Failed)
	}
}

// TestMetricsMatchBenchmarkJSON runs every workload in both modes and
// checks each prints exactly the metrics BENCHMARK.json declares, with the
// declared units, and that every output was right.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			declared := spec.EndToEnd
			if trace {
				declared = spec.PerLayer
			}
			_, res, err := execute(tiny(t, w, trace, false))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			var got, want []string
			for n, m := range res.Metrics {
				got = append(got, n+" "+m.Unit)
			}
			for _, m := range declared {
				want = append(want, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v metrics:\n got  %v\n want %v", w, trace, got, want)
			}
		}
	}
}
