package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the program must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNamesMatchBenchmarkFile(t *testing.T) {
	b := loadBenchmark(t)
	check := func(kind string, declared []string, got []string) {
		if len(declared) != len(got) {
			t.Fatalf("%s: BENCHMARK.json declares %d, the program %d", kind, len(declared), len(got))
		}
		for i := range got {
			if declared[i] != got[i] {
				t.Errorf("%s %d: BENCHMARK.json %q, program %q", kind, i, declared[i], got[i])
			}
		}
	}
	var w, e, l []string
	for _, x := range b.Workloads {
		w = append(w, x.Name)
	}
	for _, x := range b.EndToEnd {
		e = append(e, x.Name)
	}
	for _, x := range b.PerLayer {
		l = append(l, x.Name)
	}
	check("workloads", w, workloads)
	check("end_to_end", e, endToEnd)
	check("per_layer", l, perLayer)
}

// TestShortModeEmitsEveryMetric runs every workload briefly, untraced
// and traced, and requires each declared metric with its unit.
func TestShortModeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmark(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(w, 7, time.Second, traced, "", io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(units[traced]) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(units[traced]))
			}
			for name, unit := range units[traced] {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: no %s", w, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: %s in %q, BENCHMARK.json says %q", w, traced, name, m.Unit, unit)
				}
			}
		}
	}
}

// TestFaultsTripChecks injects a wrong gateway secret and a forced
// drop: each must fail the correctness check and raise fail_ratio.
func TestFaultsTripChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chain")
	}
	for _, fault := range []string{"secret", "drop"} {
		res, err := run("flood-relief", 3, time.Second, true, fault, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", fault, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: correct=%v failed=%d, want the check to fail", fault, res.Correct, res.Failed)
		}
		if fr := res.Metrics["fail_ratio"].Value; fr <= 0 {
			t.Errorf("%s: fail_ratio %v, want > 0", fault, fr)
		}
	}
}
