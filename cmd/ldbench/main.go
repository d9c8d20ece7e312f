package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// Paths relative to the repository root, where ldbench runs.
const (
	goldenPath    = "cmd/ldbench/testdata/golden.json"
	benchmarkPath = "BENCHMARK.json"
	workDir       = ".bench_build"
)

// smokeEvents is the per-trace size of the smoke test; the golden file
// holds entries for it as well as for the full size.
const smokeEvents = 50_000

func main() {
	name := flag.String("workload", "all", "workload to run: all, trace-hb, trace-short64, pipeline-zipf or service-ckpt")
	seed := flag.Int64("seed", 1, "input seed S; traces use seeds S..S+3")
	duration := flag.Duration("duration", 30*time.Second, "untraced window, which gives the end-to-end metrics")
	traced := flag.Duration("traced", 10*time.Second, "traced window, which gives the per-layer metrics")
	seconds := flag.Int("seconds", 0, "if > 0, the length in seconds of whichever window runs, overriding -duration and -traced")
	trace := flag.Int("trace", -1, "windows to run: 0 the untraced one, 1 the traced one, -1 both")
	out := flag.String("out", "", "append each workload's result as one JSON line to this file")
	spans := flag.String("spans", "", "write the traced window's spans as JSON lines into this directory")
	updateGolden := flag.Bool("update-golden", false, "rewrite "+goldenPath+" for -seed and exit")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments (parent first) and exit")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare needs two result files: parent, then change")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), benchmarkPath); err == nil && regressed {
			os.Exit(1)
		}
	case *updateGolden:
		err = writeGolden(*seed)
	case *name == "all":
		err = runChildren()
	default:
		w, ok := findWorkload(*name)
		if !ok {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		if *trace < -1 || *trace > 1 {
			err = fmt.Errorf("-trace must be -1, 0 or 1, not %d", *trace)
			break
		}
		cfg := runConfig{seed: *seed, e2e: *trace != 1, layers: *trace != 0,
			untraced: *duration, traced: *traced, workDir: workDir}
		if *seconds > 0 {
			cfg.untraced = time.Duration(*seconds) * time.Second
			cfg.traced = cfg.untraced
		}
		if cfg.golden, err = readGolden(goldenPath); err != nil {
			break
		}
		if *spans != "" {
			if err = os.MkdirAll(*spans, 0o755); err != nil {
				break
			}
			cfg.spansPath = filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		}
		var res *result
		if res, err = runWorkload(w, cfg); err != nil {
			break
		}
		printResult(os.Stdout, res, cfg.e2e, cfg.layers)
		if *out != "" {
			if err = appendResult(*out, res); err != nil {
				break
			}
		}
		if !res.Correct {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldbench:", err)
		os.Exit(2)
	}
}

// runChildren runs each workload in a child process of its own, one at
// a time, so peak_rss_mb and the garbage collector's state belong to
// that workload alone.
func runChildren() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(self, append(args, "-workload="+w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %q", failed)
	}
	return nil
}

// metricValue is one metric in the summary line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints one "workload metric value unit" line per metric
// measured, then, as the last line, a JSON summary holding the metrics
// BENCHMARK.json lists for the windows that ran.
func printResult(w io.Writer, r *result, e2e, layers bool) {
	h := r.Host
	fmt.Fprintf(w, "# host nproc=%d gomaxprocs=%d go=%s cpu=%q\n", h.NProc, h.GOMAXPROCS, h.Go, h.CPU)
	summary := map[string]metricValue{}
	for _, d := range catalogue {
		v, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		if d.listed && (d.endToEnd && e2e || !d.endToEnd && layers) {
			summary[d.name] = metricValue{v, d.unit}
		}
	}
	for _, s := range r.Warnings {
		fmt.Fprintf(w, "# warning: %s: %s\n", r.Workload, s)
	}
	for _, s := range r.Problems {
		fmt.Fprintf(w, "# problem: %s: %s\n", r.Workload, s)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, summary})
	fmt.Fprintf(w, "%s\n", line)
}

func appendResult(path string, r *result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func readGolden(path string) (map[string]outcome, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read golden outcomes (run from the repository root): %w", err)
	}
	g := map[string]outcome{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// writeGolden records the reference outcome of every workload's traces
// for seed, at the full and at the smoke-test size.
func writeGolden(seed int64) error {
	g := map[string]outcome{}
	for _, w := range workloads {
		for _, events := range []int{w.events, smokeEvents} {
			for i := int64(0); i < tracesPerSeed; i++ {
				ref, _, err := w.reference(seed+i, events)
				if err != nil {
					return err
				}
				g[goldenKey(w.name, seed+i, events)] = ref
			}
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
