package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readResults reads the JSON lines -out appends.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// readBounds returns the end-to-end bounds BENCHMARK.json fixes.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// verdict judges change against parent for one metric, by the rule of
// the choosing-metrics guide. Runs pair up in file order.
//
//   - better: the change wins at least 9 of 10 pairs and the medians
//     differ by more than the parent's interquartile range;
//   - worse: the change's median is worse than the parent's by more
//     than the bound (a share of the parent's median);
//   - unresolved: the parent's own spread is wider than the bound, and
//     not every run of the change beats every run of the parent;
//   - same: none of these.
//
// Metrics without a bound get only "better" or "-".
func verdict(parent, change []float64, higherBetter bool, bound float64, hasBound bool) string {
	sign := 1.0
	if !higherBetter {
		sign = -1
	}
	better := func(b, a float64) bool { return sign*(b-a) > 0 }
	pairs, wins := min(len(parent), len(change)), 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	pq1, pm, pq3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	if pairs > 0 && 10*wins >= 9*pairs && better(cm, pm) && math.Abs(cm-pm) > pq3-pq1 {
		return "better"
	}
	if !hasBound {
		return "-"
	}
	if -sign*(cm-pm) > bound*math.Abs(pm) {
		return "worse"
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	if pq3-pq1 > bound*math.Abs(pm) && !allBetter {
		return "unresolved"
	}
	return "same"
}

// compareFiles prints, per workload and metric, each side's median and
// quartiles and the verdict. It reports whether any end-to-end metric
// got worse or any run of the change was incorrect.
func compareFiles(w io.Writer, parentPath, changePath, benchPath string) (bool, error) {
	parent, err := readResults(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readResults(changePath)
	if err != nil {
		return false, err
	}
	bounds, err := readBounds(benchPath)
	if err != nil {
		return false, err
	}
	byWorkload := func(rs []result) map[string][]result {
		m := map[string][]result{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	regressed := false
	fmt.Fprintf(w, "%-14s %-32s %-6s %-36s %-36s %8s  %s\n", "workload", "metric", "unit",
		"parent median [q1 q3]", "change median [q1 q3]", "change", "verdict")
	for _, wl := range workloads {
		ps, cs := pw[wl.name], cw[wl.name]
		if len(ps) == 0 || len(cs) == 0 {
			continue
		}
		for _, r := range cs {
			if !r.Correct {
				regressed = true
				fmt.Fprintf(w, "%-14s incorrect change run (seed %d): %v\n", wl.name, r.Seed, r.Problems)
			}
		}
		for _, d := range catalogue {
			pv, cv := values(ps, d.name), values(cs, d.name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			bound, hasBound := bounds[d.name]
			v := verdict(pv, cv, d.better == "higher", bound, hasBound)
			if v == "worse" {
				regressed = true
			}
			pq1, pm, pq3 := quartiles(pv)
			cq1, cm, cq3 := quartiles(cv)
			fmt.Fprintf(w, "%-14s %-32s %-6s %-36s %-36s %+7.1f%%  %s\n", wl.name, d.name, d.unit,
				fmt.Sprintf("%.5g [%.5g %.5g]", pm, pq1, pq3), fmt.Sprintf("%.5g [%.5g %.5g]", cm, cq1, cq3),
				100*ratio(cm-pm, math.Abs(pm)), v)
		}
	}
	return regressed, nil
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}
