package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../../" + benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("%s: %v", benchmarkPath, err)
	}
	return b
}

// TestBenchmarkFile checks that BENCHMARK.json lists exactly the
// workloads ldbench runs and the metrics its catalogue marks as listed,
// with the same units and directions.
func TestBenchmarkFile(t *testing.T) {
	b := readBenchFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("workloads %v, want %v", names, want)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var listed []benchMetric
	var endToEnd []bool
	for _, d := range catalogue {
		if d.listed {
			listed = append(listed, benchMetric{Name: d.name, Unit: d.unit, Better: d.better})
			endToEnd = append(endToEnd, d.endToEnd)
		}
	}
	got := append(append([]benchMetric(nil), b.EndToEnd...), b.PerLayer...)
	if len(got) != len(listed) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the catalogue %d", len(got), len(listed))
	}
	for i, m := range got {
		l := listed[i]
		if m.Name != l.Name || m.Unit != l.Unit || m.Better != l.Better {
			t.Errorf("metric %d: BENCHMARK.json %s %s %s, catalogue %s %s %s", i, m.Name, m.Unit, m.Better, l.Name, l.Unit, l.Better)
		}
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q is not a valid name", m.Name)
		}
		if isE2E := i < len(b.EndToEnd); isE2E != endToEnd[i] || isE2E != (m.Bound != nil) {
			t.Errorf("metric %s is in the wrong list or has the wrong keys", m.Name)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
	}
}

// TestSmoke runs every workload in-process on small traces with short
// windows. It asserts that every metric BENCHMARK.json names is printed
// with its unit, that no unit failed, and that the golden outcomes match.
// It makes no timing assertions.
func TestSmoke(t *testing.T) {
	b := readBenchFile(t)
	golden, err := readGolden("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for i := int64(1); i <= tracesPerSeed; i++ {
				if _, ok := golden[goldenKey(w.name, i, smokeEvents)]; !ok {
					t.Fatalf("no golden entry %q", goldenKey(w.name, i, smokeEvents))
				}
			}
			res, err := runWorkload(w, runConfig{seed: 1, events: smokeEvents, e2e: true, layers: true,
				untraced: time.Second, traced: time.Second, workDir: t.TempDir(), golden: golden})
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			printResult(&out, res, true, true)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			printed := map[string]string{}
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) == 4 && f[0] == w.name {
					printed[f[1]] = f[3]
				}
			}
			var summary struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metricValue
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatalf("summary line: %v", err)
			}
			for _, m := range append(b.EndToEnd, b.PerLayer...) {
				if printed[m.Name] != m.Unit {
					t.Errorf("metric %s printed with unit %q, want %q", m.Name, printed[m.Name], m.Unit)
				}
				if v, ok := summary.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("metric %s missing from the summary line", m.Name)
				}
			}
			if len(summary.Metrics) != len(b.EndToEnd)+len(b.PerLayer) {
				t.Errorf("summary line has %d metrics, want %d", len(summary.Metrics), len(b.EndToEnd)+len(b.PerLayer))
			}
			if !summary.Correct || summary.Failed != 0 || summary.Attempted == 0 || res.Metrics["failed_frac"] != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d problems=%q", summary.Correct, summary.Attempted, summary.Failed, res.Problems)
			}
		})
	}
}

// TestGoldenMismatchFails feeds a wrong golden entry and expects the run
// to be marked incorrect.
func TestGoldenMismatchFails(t *testing.T) {
	w, _ := findWorkload("trace-hb")
	key := goldenKey(w.name, 1, smokeEvents)
	golden := map[string]outcome{key: {Events: smokeEvents, Races: -1}}
	res, err := runWorkload(w, runConfig{seed: 1, events: smokeEvents, e2e: true, workDir: t.TempDir(), golden: golden})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || len(res.Problems) == 0 || !strings.Contains(res.Problems[0], key) {
		t.Fatalf("a wrong golden entry went unnoticed: correct=%v problems=%q", res.Correct, res.Problems)
	}
}

// TestVerifyCountsWrongUnits: a unit whose answer differs from its
// trace's reference, or that ended in an error, is a failed unit.
func TestVerifyCountsWrongUnits(t *testing.T) {
	ref := outcome{Events: 10, Races: 2, SHA256: "x"}
	wrong := ref
	wrong.Races = 3
	units := []unitRec{{out: ref}, {out: wrong}, {err: os.ErrClosed}, {trace: 1, out: ref, canonical: []byte("b")}}
	var res result
	res.verify("window", units, []outcome{ref, ref}, [][]byte{nil, []byte("a")}, true)
	if res.Failed != 3 || len(res.Problems) != 3 {
		t.Fatalf("failed=%d problems=%q, want 3 of each", res.Failed, res.Problems)
	}
}

// TestQuartiles checks the cut points against Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{5, 1}, 0, 3, 6}, // the exclusive method extrapolates
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		change []float64
		higher bool
		want   string
	}{
		{shift(5), true, "better"},
		{shift(-5), false, "better"},
		{shift(-15), true, "worse"},
		{shift(0.5), true, "same"},
	} {
		if got := verdict(parent, tc.change, tc.higher, 0.10, true); got != tc.want {
			t.Errorf("verdict(%v, higher=%v) = %s, want %s", tc.change[:2], tc.higher, got, tc.want)
		}
	}
	wide := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got := verdict(wide, wide, true, 0.10, true); got != "unresolved" {
		t.Errorf("verdict on a spread wider than the bound = %s, want unresolved", got)
	}
}
