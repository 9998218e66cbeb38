package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
)

// tinySizes runs every workload in milliseconds.
var tinySizes = sizes{nodes: 0.01, work: 0.1, seeds: 1}

func runTiny(t *testing.T, name string, seed int64, trace bool, golden string) *report {
	t.Helper()
	rep, err := run(name, runConfig{seed: seed, trace: trace, sizes: tinySizes, golden: golden, log: io.Discard})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return rep
}

type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func keys(m metricSet) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestMetricsMatchBenchmarkJSON runs every workload traced, so it
// measures both tables, and checks the metrics against BENCHMARK.json:
// the declared names, units, directions and bounds equal the program's
// tables, every metric a run computes is declared, and every declared
// metric is computed by some workload.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}

	declared := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		declared[d.name] = true
	}
	computed := map[string]bool{}
	for _, w := range workloads {
		rep := runTiny(t, w.name, 1, true, "")
		if rep.Failed != 0 {
			t.Errorf("%s: %d of %d units failed", w.name, rep.Failed, rep.Attempted)
		}
		for _, k := range keys(rep.Metrics) {
			if !declared[k] {
				t.Errorf("%s computes %q, which BENCHMARK.json does not declare", w.name, k)
			}
			computed[k] = true
		}
		for _, d := range endToEnd {
			if rep.Metrics[d.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, rep.Metrics[d.name])
			}
		}
	}
	for name := range declared {
		if !computed[name] {
			t.Errorf("BENCHMARK.json declares %q, but no workload computes it", name)
		}
	}
}

// TestSeedChangesInputsNotMetrics: another seed gives other inputs (the
// digest differs) and the same metric names, and both seeds pass every
// output check.
func TestSeedChangesInputsNotMetrics(t *testing.T) {
	for _, w := range workloads {
		a := runTiny(t, w.name, 1, false, "")
		b := runTiny(t, w.name, 2, false, "")
		if a.Digest == b.Digest {
			t.Errorf("%s: seeds 1 and 2 give the same digest %s", w.name, a.Digest)
		}
		if ka, kb := strings.Join(keys(a.Metrics), ","), strings.Join(keys(b.Metrics), ","); ka != kb {
			t.Errorf("%s: metric names differ between seeds:\n%s\n%s", w.name, ka, kb)
		}
		if a.Failed+b.Failed != 0 {
			t.Errorf("%s: %d and %d units failed", w.name, a.Failed, b.Failed)
		}
	}
}

// TestGoldenDigest: a run matching its golden listing passes, and one
// corrupted digest fails exactly that unit.
func TestGoldenDigest(t *testing.T) {
	for _, name := range []string{"design-cold", "service-mixed"} {
		ref := runTiny(t, name, 1, false, "")
		if rep := runTiny(t, name, 1, false, ref.Units); rep.Failed != 0 {
			t.Errorf("%s: %d units failed against their own golden listing", name, rep.Failed)
		}
		corrupt := "0" + ref.Units[1:]
		if corrupt == ref.Units {
			corrupt = "1" + ref.Units[1:]
		}
		if rep := runTiny(t, name, 1, false, corrupt); rep.Failed != 1 {
			t.Errorf("%s: corrupted golden digest failed %d units, want 1", name, rep.Failed)
		}
	}
}

// TestGoldenFilesMatchFullSizes keeps the committed goldens honest about
// what they pin: one line per unit of the seed-1 workload at full size.
func TestGoldenFilesMatchFullSizes(t *testing.T) {
	for _, w := range workloads {
		data, err := goldens.ReadFile("testdata/" + w.name + ".sha256")
		if err != nil {
			t.Fatal(err)
		}
		var units int
		if w.service != nil {
			units = len(w.service(1, fullSizes))
		} else {
			u, _ := unitsOf(w.scenarios(1, fullSizes))
			units = len(u)
		}
		if lines := strings.Count(string(data), "\n"); lines != units {
			t.Errorf("%s: golden has %d lines, the workload %d units", w.name, lines, units)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{name: "units_per_s", better: "higher", bound: 0.1}
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{[]float64{100, 99, 101, 100, 100}, "unchanged"},
		{[]float64{120, 121, 119, 122, 120}, "improved"},
		{[]float64{80, 81, 79, 80, 82}, "worse"},
		{[]float64{60, 140, 100, 70, 130}, "unresolved"},
	} {
		if got, _ := verdict(base, tc.b, d); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.b, got, tc.want)
		}
	}
}
