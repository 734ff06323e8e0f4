package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// spec is the part of the repository's BENCHMARK.json the smoke test
// holds the benchmark to.
type spec struct {
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

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that it passes its output checks and emits exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	var declared []string
	for _, w := range s.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := workloadNames(); !slices.Equal(got, declared) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, declared)
	}
	for _, name := range declared {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			dir := t.TempDir()
			cfg := config{workload: name, seed: 1, seconds: 0.01, trace: trace, tiny: true, spanDir: dir}
			rep, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed > rep.Attempted {
				t.Fatalf("%s trace=%v: report %+v", name, trace, rep)
			}
			for m, unit := range want {
				got, ok := rep.Metrics[m]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", name, trace, m, got.Unit, unit)
				}
			}
			for m := range rep.Metrics {
				if _, ok := want[m]; !ok {
					t.Errorf("%s trace=%v: metric %s is not declared in BENCHMARK.json", name, trace, m)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(dir, name+"-seed1.json")); err != nil {
					t.Errorf("%s: span file: %v", name, err)
				}
			}
		}
	}
}
