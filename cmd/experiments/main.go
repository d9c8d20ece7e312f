// Command experiments regenerates every table and figure of the paper's
// evaluation, printing measured results next to the paper's numbers.
//
// Usage:
//
//	experiments [-run all|examples|equivalence|drf|opt|x86|arm|fig5a|fig5b|fig5c|padding]
//	experiments -run bench [-bench-json BENCH_engine.json] [-monitor-json BENCH_monitor.json]
//	experiments -run bench-monitor [-monitor-json BENCH_monitor.json]
//	experiments -run bench-service [-service-json BENCH_service.json]
//	experiments -run bench-compare [-monitor-json BENCH_monitor.json]
//	experiments -run bench-plot [-plot-out bench_plot.svg] [BENCH.json ...]
//
// The semantic experiments (examples, equivalence, x86, arm, opt, drf)
// are exact model-checking results and must reproduce the paper's
// verdicts verbatim. The fig5* experiments run the pipeline-simulator
// substitute for the paper's hardware measurements (see DESIGN.md);
// their numbers are expected to match in shape, not in absolute value.
//
// The bench experiment times the exploration engine against the
// sequential reference path (single tests and the full litmus-corpus
// sweep) and, with -bench-json, writes the measurements as JSON so the
// performance trajectory can be tracked across PRs (BENCH_*.json files).
// It also runs the streaming-monitor benches and writes them to the
// -monitor-json file (BENCH_monitor.json by default): schedule
// generation, single-core monitoring throughput (events/sec) over a
// 10⁶-event bursty schedule — the headline number of the online race
// monitor — plus the parallel-pipeline rows (pipeline-{2,4,8}shard,
// each run and recorded at a multicore GOMAXPROCS of shards+1), the
// wire-v2 frame-decoder throughput with the encoded stream size, the
// skewed-workload row (skewed-zipf-1M: a
// Zipf-skewed stream through the 4-shard pipeline's static
// loc-mod-shards split) and the
// compaction row (compaction-quiet-1M, recording the live
// escalated-vector count with sweeps disabled versus with the GC's
// epoch re-compaction running). Every multicore row records the
// GOMAXPROCS it ran at. bench-monitor runs only the monitor benches.
//
// bench-service runs the racemond soak matrix: an in-process service
// server on loopback driven by 8..128 concurrent resume-capable
// clients, recording per row the session count, aggregate monitored
// events/sec, p99 per-session ingest latency and process peak RSS, all
// written to -service-json (BENCH_service.json). Service rows are not
// part of the bench-compare gate — concurrent wall-clock numbers are
// noisier than the single-core monitor rows the gate is calibrated for.
//
// bench-compare reruns the monitor benches in memory and diffs their
// events/sec against the committed -monitor-json baseline, exiting
// nonzero if any tracked row regressed by more than 15% — the CI
// performance gate. Rows present on only one side are reported but not
// compared. Both bench JSON writers record the host CPU model and Go
// toolchain version; bench-compare warns (without failing) when the
// baseline's provenance differs from the current host.
//
// bench-plot renders the events/sec trajectory across one or more bench
// JSON snapshots (given as positional arguments, in plot order;
// defaults to BENCH_monitor.json) as a dependency-free SVG of small
// multiples — one panel per bench row. CI plots the committed baseline
// against the fresh bench-monitor run and uploads the SVG as an
// artifact.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"localdrf"
	"localdrf/internal/engine"
	"localdrf/internal/monitor"
	"localdrf/internal/progsynth"
	"localdrf/internal/race"
	"localdrf/internal/schedgen"
	"localdrf/internal/staticrace"
)

var (
	benchJSON   = flag.String("bench-json", "", "write bench results as JSON to this file")
	monitorJSON = flag.String("monitor-json", "BENCH_monitor.json", "write monitor bench results as JSON to this file (empty disables)")
	plotOut     = flag.String("plot-out", "bench_plot.svg", "where bench-plot writes its SVG")
)

func main() {
	run := flag.String("run", "all", "which experiment to regenerate")
	flag.Parse()

	experiments := []struct {
		name string
		fn   func() error
	}{
		{"examples", examples},
		{"equivalence", equivalence},
		{"drf", drf},
		{"opt", optimiser},
		{"x86", x86Soundness},
		{"arm", armSoundness},
		{"fig5a", fig5a},
		{"fig5b", fig5b},
		{"fig5c", fig5c},
		{"padding", padding},
	}
	if *run == "bench" {
		if err := bench(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment bench failed: %v\n", err)
			os.Exit(1)
		}
		if err := benchMonitor(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment bench-monitor failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *run == "bench-monitor" {
		if err := benchMonitor(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment bench-monitor failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *run == "bench-service" {
		if err := benchService(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment bench-service failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *run == "bench-compare" {
		if err := benchCompare(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment bench-compare failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *run == "bench-plot" {
		if err := benchPlot(flag.Args(), *plotOut); err != nil {
			fmt.Fprintf(os.Stderr, "experiment bench-plot failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	any := false
	for _, e := range experiments {
		if *run != "all" && *run != e.name {
			continue
		}
		any = true
		fmt.Printf("==== %s ====\n", e.name)
		if err := e.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		os.Exit(2)
	}
}

// examples regenerates §2/§5: the three example fragments behave
// sequentially here, and the C++/Java miscompilations reproduce the bad
// outcomes.
func examples() error {
	names := []string{
		"Example1", "Example1+miscompiled",
		"Example2", "Example2+miscompiled",
		"Example3", "S9.2",
	}
	for _, n := range names {
		tc, ok := localdrf.LitmusTestByName(n)
		if !ok {
			return fmt.Errorf("missing litmus test %s", n)
		}
		if err := localdrf.VerifyLitmus(tc); err != nil {
			return err
		}
		fmt.Printf("%-22s %s\n", tc.Name, tc.Description)
		set, err := localdrf.Outcomes(tc.Prog)
		if err != nil {
			return err
		}
		for _, c := range tc.Checks {
			verdict := "forbidden"
			if set.Exists(c.Pred) {
				verdict = "allowed"
			}
			note := ""
			if c.Note != "" {
				note = " — " + c.Note
			}
			fmt.Printf("    %-24s %-9s (paper: %v)%s\n", c.Name, verdict, c.Want, note)
		}
	}
	return nil
}

// equivalence regenerates the thm. 15/16 check on the whole litmus
// suite: operational and axiomatic outcome sets coincide. The suite is
// swept concurrently on the engine's task runner; the report is printed
// in catalogue order.
func equivalence() error {
	suite := localdrf.LitmusSuite()
	lines := make([]string, len(suite))
	err := engine.ForEach(0, len(suite), func(_, i int) error {
		tc := suite[i]
		// Inner exploration stays single-threaded: the corpus fan-out
		// already saturates the cores.
		op, err := localdrf.OutcomesOpt(tc.Prog, localdrf.ExploreOptions{Parallelism: 1})
		if err != nil {
			return err
		}
		ax, err := localdrf.OutcomesAxiomatic(tc.Prog)
		if err != nil {
			return err
		}
		status := "EQUAL"
		if !op.Equal(ax) {
			status = "DIFFER"
		}
		lines[i] = fmt.Sprintf("%-22s operational=%2d axiomatic=%2d  %s",
			tc.Name, op.Len(), ax.Len(), status)
		if status == "DIFFER" {
			return fmt.Errorf("%s: models disagree", tc.Name)
		}
		return nil
	})
	for _, l := range lines {
		if l != "" {
			fmt.Println(l)
		}
	}
	if err != nil {
		return err
	}
	fmt.Println("thm 15/16: operational ≡ axiomatic on the full suite")
	return nil
}

// drf regenerates the §4/§5 story: global DRF on race-free programs,
// race detection on racy ones, local DRF from the examples' states.
func drf() error {
	guarded := localdrf.NewProgram("MP-guarded").
		Vars("x").
		Atomics("F").
		Thread("P0").StoreI("x", 1).StoreI("F", 1).Done().
		Thread("P1").Load("r0", "F").JmpZ("r0", "skip").Load("r1", "x").Label("skip").Done().
		MustBuild()
	if err := localdrf.CheckGlobalDRF(guarded); err != nil {
		return err
	}
	fmt.Println("thm 14 (global DRF): MP-guarded is race-free ⇒ all behaviours SC   OK")

	for _, n := range []string{"Example1", "Example2", "MP+na"} {
		tc, _ := localdrf.LitmusTestByName(n)
		races, err := localdrf.FindRaces(tc.Prog, false)
		if err != nil {
			return err
		}
		fmt.Printf("races in %-12s:", n)
		for _, r := range races {
			fmt.Printf(" [%s]", r)
		}
		fmt.Println()
	}

	cases := []struct {
		test string
		L    []localdrf.Loc
	}{
		{"Example1", []localdrf.Loc{"a", "b"}},
		{"Example2", []localdrf.Loc{"a"}},
		{"Example3", []localdrf.Loc{"cx", "g"}},
	}
	for _, c := range cases {
		tc, _ := localdrf.LitmusTestByName(c.test)
		L := localdrf.NewLocSet(c.L...)
		m := localdrf.NewMachine(tc.Prog)
		stable, err := localdrf.LStable(tc.Prog, m, L)
		if err != nil {
			return err
		}
		if err := localdrf.CheckLocalDRFFrom(m, L); err != nil {
			return err
		}
		fmt.Printf("thm 13 (local DRF) from M0 of %-10s with L=%v: stable=%v, theorem holds\n",
			c.test, c.L, stable)
	}
	return nil
}

// optimiser regenerates §7.1: the valid derivations succeed, the invalid
// one is rejected with the violated constraint.
func optimiser() error {
	p := localdrf.NewProgram("opt").
		Vars("a", "b", "c").
		Thread("P0").
		Load("r1", "a").
		Load("r2", "b").
		Load("r3", "a").
		Done().
		MustBuild()
	f := localdrf.ThreadFragment(p, 0)
	out, steps, err := localdrf.CSE(f, p)
	if err != nil {
		return err
	}
	fmt.Printf("CSE        [%s] ⇒ [%s]  (%d steps)\n", f, out, len(steps))

	p2 := localdrf.NewProgram("dse").
		Vars("a", "b", "c").
		Thread("P0").
		StoreI("a", 1).
		Load("rc", "c").
		StoreR("b", "rc").
		StoreI("a", 2).
		Done().
		MustBuild()
	f2 := localdrf.ThreadFragment(p2, 0)
	out2, _, err := localdrf.DSE(f2, p2)
	if err != nil {
		return err
	}
	fmt.Printf("DSE        [%s] ⇒ [%s]\n", f2, out2)

	p3 := localdrf.NewProgram("cp").
		Vars("a", "b", "c").
		Thread("P0").
		StoreI("a", 1).
		Load("rc", "c").
		StoreR("b", "rc").
		Load("r", "a").
		Done().
		MustBuild()
	f3 := localdrf.ThreadFragment(p3, 0)
	out3, _, err := localdrf.ConstProp(f3, p3)
	if err != nil {
		return err
	}
	fmt.Printf("ConstProp  [%s] ⇒ [%s]\n", f3, out3)

	p4 := localdrf.NewProgram("rse").
		Vars("a", "b", "c").
		Thread("P0").
		Load("r1", "a").
		Load("rc", "c").
		StoreR("b", "rc").
		StoreR("a", "r1").
		Done().
		MustBuild()
	f4 := localdrf.ThreadFragment(p4, 0)
	if _, _, err := localdrf.RedundantStoreElimination(f4, p4); err != nil {
		fmt.Printf("RSE        [%s] rejected: %v\n", f4, err)
	} else {
		return fmt.Errorf("redundant store elimination was not rejected")
	}
	return nil
}

func x86Soundness() error {
	return soundnessTable([]localdrf.Scheme{localdrf.SchemeX86, localdrf.SchemeX86PlainAtomicStore})
}

func armSoundness() error {
	return soundnessTable([]localdrf.Scheme{
		localdrf.SchemeARMBal, localdrf.SchemeARMFbs, localdrf.SchemeARMSra,
		localdrf.SchemeARMNaive, localdrf.SchemeARMNaiveAtomics,
	})
}

// soundnessTable prints, per scheme × litmus test, whether compilation is
// sound. The ablation schemes are *expected* to be unsound on specific
// tests (that is their purpose); sound schemes must never be.
func soundnessTable(schemes []localdrf.Scheme) error {
	soundSchemes := map[localdrf.Scheme]bool{
		localdrf.SchemeX86:    true,
		localdrf.SchemeARMBal: true,
		localdrf.SchemeARMFbs: true,
		localdrf.SchemeARMSra: true,
	}
	for _, s := range schemes {
		fmt.Printf("%s:\n", s)
		for _, tc := range localdrf.LitmusSuite() {
			err := localdrf.CheckCompilation(tc.Prog, s)
			verdict := "sound"
			if err != nil {
				verdict = "UNSOUND: " + err.Error()
			}
			fmt.Printf("    %-22s %s\n", tc.Name, verdict)
			if err != nil && soundSchemes[s] {
				return fmt.Errorf("scheme %s must be sound on %s: %w", s, tc.Name, err)
			}
		}
	}
	return nil
}

// fig5a prints the workload table: benchmark, access rate, class mix.
func fig5a() error {
	fmt.Printf("%-22s %9s   %s\n", "benchmark", "M acc/s", "memory access distribution (reconstructed)")
	for _, b := range localdrf.Benchmarks() {
		fmt.Printf("%-22s %9.2f   %s   fp=%.0f%%\n", b.Name, b.RateM, b.MixString(), 100*b.FPShare)
	}
	return nil
}

func fig5b() error {
	return fig5series(localdrf.ArchThunderX(), map[localdrf.PerfScheme]string{
		localdrf.PerfBAL: "+2.5%", localdrf.PerfFBS: "+0.6%", localdrf.PerfSRA: "+85.3%",
	})
}

func fig5c() error {
	return fig5series(localdrf.ArchPower(), map[localdrf.PerfScheme]string{
		localdrf.PerfBAL: "+2.9%", localdrf.PerfFBS: "+26.0%", localdrf.PerfSRA: "+40.8%",
	})
}

func fig5series(arch localdrf.Arch, paperAvg map[localdrf.PerfScheme]string) error {
	schemes := []localdrf.PerfScheme{localdrf.PerfBAL, localdrf.PerfFBS, localdrf.PerfSRA}
	per := map[localdrf.PerfScheme]map[string]float64{}
	avg := map[localdrf.PerfScheme]float64{}
	for _, s := range schemes {
		per[s], avg[s] = localdrf.SimSuite(arch, s)
	}
	fmt.Printf("%s — simulated time normalised to baseline\n", arch.Name)
	fmt.Printf("%-22s", "benchmark")
	for _, s := range schemes {
		fmt.Printf(" %8s", s)
	}
	fmt.Println()
	var names []string
	for _, b := range localdrf.Benchmarks() {
		names = append(names, b.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-22s", n)
		for _, s := range schemes {
			fmt.Printf(" %8.3f", per[s][n])
		}
		fmt.Println()
	}
	fmt.Printf("%-22s", "AVERAGE (measured)")
	for _, s := range schemes {
		fmt.Printf(" %+7.1f%%", 100*(avg[s]-1))
	}
	fmt.Println()
	fmt.Printf("%-22s", "AVERAGE (paper)")
	for _, s := range schemes {
		fmt.Printf(" %8s", paperAvg[s])
	}
	fmt.Println()
	return nil
}

// benchResult is one timed measurement, serialised to the -bench-json
// file so future PRs can track the performance trajectory.
type benchResult struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	TotalNs    int64   `json:"total_ns"`
	// EventsPerSec is the streaming-throughput form of the measurement,
	// reported by the monitor benches (events processed per second).
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// RAPeakLive is the high-water mark of live RA messages during the
	// run — the windowed GC's retention bound (monitor benches only).
	RAPeakLive int `json:"ra_peak_live,omitempty"`
	// RACollected is how many dead RA messages the windowed GC reclaimed.
	RACollected uint64 `json:"ra_collected,omitempty"`
	// WindowPeakLive is the high-water mark of live short-race window
	// candidates — the measured bounded-memory claim of the distance-k
	// predicate (short-k rows only; bounded by k + GC interval
	// regardless of stream length).
	WindowPeakLive int `json:"window_peak_live,omitempty"`
	// AllocsPerEvent is the heap allocation rate of the monitoring pass
	// (monitor benches only; epochs keep the common case at ≈0).
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"`
	// GoMaxProcs records a per-row GOMAXPROCS override (the pipeline
	// rows run multicore; unset rows ran at the document-level value).
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// EncodedBytes is the wire-format size of the benched stream
	// (wire benches only).
	EncodedBytes int `json:"encoded_bytes,omitempty"`
	// SnapshotBytes is the encoded size of the monitor's checkpoint at
	// the end of the benched stream — the direct measurement of the live
	// state the windowed GC and epoch compression keep bounded.
	SnapshotBytes int `json:"snapshot_bytes,omitempty"`
	// EscalatedBefore/EscalatedAfter bracket the GC's epoch re-compaction
	// (compaction bench only): live escalated-vector count at end of
	// stream with sweeps disabled, versus with compaction demoting quiet
	// vectors back to epochs at every sweep.
	EscalatedBefore int `json:"escalated_before,omitempty"`
	EscalatedAfter  int `json:"escalated_after,omitempty"`
	// CertifiedLocs is how many locations the static certificate let the
	// monitor's prefilter skip (static-prefilter row only).
	CertifiedLocs int `json:"certified_locs,omitempty"`
	// Sessions is how many concurrent trace sessions the row streamed
	// through the racemond server (bench-service rows only).
	Sessions int `json:"sessions,omitempty"`
	// P99LatencyMs is the 99th-percentile per-session ingest latency —
	// handshake to done line for the whole trace (bench-service rows).
	P99LatencyMs float64 `json:"p99_latency_ms,omitempty"`
	// PeakRSSBytes is the process high-water RSS (VmHWM) after the row
	// ran (bench-service rows; 0 where /proc is unavailable).
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
}

// benchDoc is the on-disk shape of a BENCH_*.json file: the rows plus
// the provenance needed to judge whether two files are comparable
// (bench numbers from different CPUs or toolchains are trajectories,
// not regressions).
type benchDoc struct {
	Generated  string        `json:"generated"`
	GoMaxProcs int           `json:"gomaxprocs"`
	CPUModel   string        `json:"cpu_model,omitempty"`
	GoVersion  string        `json:"go_version,omitempty"`
	Results    []benchResult `json:"results"`
}

// cpuModel best-effort identifies the host CPU. Linux exposes it in
// /proc/cpuinfo ("model name" on x86, sometimes "Processor"/"uarch"
// elsewhere); when unreadable the architecture is better than nothing.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			key, val, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(key) {
			case "model name", "Processor", "uarch":
				return strings.TrimSpace(val)
			}
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}

// timeIt runs fn repeatedly for at least ~200ms (and at least 3 times)
// and records the mean time per run.
func timeIt(name string, results *[]benchResult, fn func() error) error {
	const minDuration = 200 * time.Millisecond
	var total time.Duration
	iters := 0
	for total < minDuration || iters < 3 {
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		total += time.Since(start)
		iters++
	}
	r := benchResult{
		Name:       name,
		Iterations: iters,
		NsPerOp:    float64(total.Nanoseconds()) / float64(iters),
		TotalNs:    total.Nanoseconds(),
	}
	*results = append(*results, r)
	fmt.Printf("%-36s %8d iters   %12.0f ns/op\n", r.Name, r.Iterations, r.NsPerOp)
	return nil
}

// bench times the exploration engine against the sequential reference
// path: the fig. 1 message-passing enumeration and the full litmus-corpus
// sweep. With -bench-json the measurements are written as JSON.
func bench() error {
	mp, ok := localdrf.LitmusTestByName("MP")
	if !ok {
		return fmt.Errorf("MP missing from the catalogue")
	}
	suite := localdrf.LitmusSuite()
	var results []benchResult
	checkErr := func(_ *localdrf.OutcomeSet, err error) error { return err }

	if err := timeIt("fig1-mp/sequential", &results, func() error {
		return checkErr(localdrf.OutcomesSequential(mp.Prog))
	}); err != nil {
		return err
	}
	if err := timeIt("fig1-mp/engine", &results, func() error {
		return checkErr(localdrf.Outcomes(mp.Prog))
	}); err != nil {
		return err
	}
	if err := timeIt("litmus-sweep/sequential", &results, func() error {
		for _, tc := range suite {
			if err := checkErr(localdrf.OutcomesSequential(tc.Prog)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := timeIt("litmus-sweep/engine-concurrent", &results, func() error {
		return engine.ForEach(0, len(suite), func(_, i int) error {
			return checkErr(localdrf.OutcomesOpt(suite[i].Prog,
				localdrf.ExploreOptions{Parallelism: 1}))
		})
	}); err != nil {
		return err
	}

	return writeBenchJSON(*benchJSON, results)
}

// writeBenchJSON serialises bench measurements (no-op when path is "").
func writeBenchJSON(path string, results []benchResult) error {
	if path == "" {
		return nil
	}
	doc := benchDoc{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Results:    results,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// benchMonitor times the streaming race monitor on the workload the
// acceptance bar names: a 10⁶-event bursty schedule of a scaled random
// program, monitored single-core in one pass. It also records schedule
// generation, the fused generate-and-monitor stream mode, and the
// sharded-by-location mode; the online pass additionally reports the
// windowed GC's peak live RA-message count and the monitoring
// allocations per event. Everything is written to -monitor-json.
func benchMonitor() error {
	results, err := benchMonitorResults()
	if err != nil {
		return err
	}
	return writeBenchJSON(*monitorJSON, results)
}

// benchMonitorResults runs the monitor benches and returns the rows —
// shared by bench-monitor (which writes them to the JSON baseline) and
// bench-compare (which diffs them against it without writing).
func benchMonitorResults() ([]benchResult, error) {
	const nevents = 1_000_000
	cfg := progsynth.ScaledDefaults()
	cfg.Iters = cfg.IterationsFor(nevents)
	p := progsynth.Scaled(1, cfg)
	tb := monitor.NewTable(p)
	opt := schedgen.Options{Policy: schedgen.Bursty, Seed: 1, MaxEvents: nevents, StaleReadPct: 10}

	var results []benchResult
	var stream []monitor.Event
	if err := timeIt("monitor/schedgen-bursty-1M", &results, func() error {
		var err error
		stream, _, err = schedgen.Generate(p, tb, opt, stream[:0])
		return err
	}); err != nil {
		return nil, err
	}
	mon := tb.NewMonitor()
	if err := timeIt("monitor/online-bursty-1M", &results, func() error {
		mon.Reset()
		for _, e := range stream {
			mon.Step(e)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	online := len(results) - 1
	// One dedicated pass for the allocation rate (the timed loops above
	// interleave with harness bookkeeping).
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mon.Reset()
	for _, e := range stream {
		mon.Step(e)
	}
	runtime.ReadMemStats(&after)
	st := mon.RAStats()
	results[online].RAPeakLive = st.Peak
	results[online].RACollected = st.Collected
	results[online].AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(nevents)
	// Telemetry overhead: the identical single-core pass with a scraper
	// goroutine polling Obs().Snapshot() every millisecond — the /stats
	// endpoint's access pattern. The acceptance bound for the obs layer
	// is this row staying within 2% of online-bursty-1M; bench-compare
	// tracks it against its own baseline like every other row.
	if err := timeIt("monitor/obs-overhead-1M", &results, func() error {
		mon.Reset()
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			reg := mon.Obs()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					_ = reg.Snapshot()
				}
			}
		}()
		for _, e := range stream {
			mon.Step(e)
		}
		close(stop)
		<-done
		return nil
	}); err != nil {
		return nil, err
	}
	obsRow := len(results) - 1
	// The checkpoint of the fully-monitored stream IS the live state —
	// record its size on the online row, and time the codec round trip.
	var snapBuf bytes.Buffer
	if err := mon.Snapshot(&snapBuf); err != nil {
		return nil, err
	}
	results[online].SnapshotBytes = snapBuf.Len()
	if err := timeIt("monitor/snapshot-roundtrip-1M", &results, func() error {
		snapBuf.Reset()
		if err := mon.Snapshot(&snapBuf); err != nil {
			return err
		}
		_, err := monitor.Restore(bytes.NewReader(snapBuf.Bytes()))
		return err
	}); err != nil {
		return nil, err
	}
	results[len(results)-1].SnapshotBytes = snapBuf.Len()
	if err := timeIt("monitor/stream-bursty-1M", &results, func() error {
		m := tb.NewMonitor()
		_, err := schedgen.Stream(p, tb, opt, func(e monitor.Event) error {
			m.Step(e)
			return nil
		})
		return err
	}); err != nil {
		return nil, err
	}
	hdr := monitor.Header{Threads: tb.Threads(), Decls: tb.Decls()}
	if err := timeIt("monitor/sharded4-bursty-1M", &results, func() error {
		sk := monitor.Open(hdr, monitor.PipelineConfig{Shards: 4})
		sk.StepBatch(stream)
		sk.Finish()
		return nil
	}); err != nil {
		return nil, err
	}
	// The parallel pipeline rows run multicore: GOMAXPROCS is raised to
	// shards+1 (sync front-end + race back-ends) for the row and
	// recorded in it, then restored, so the single-core rows above stay
	// comparable across PRs. On machines with fewer physical cores the
	// row records the setting it asked for; the wall clock tells the
	// truth about what the hardware could deliver.
	prevProcs := runtime.GOMAXPROCS(0)
	for _, shards := range []int{2, 4, 8} {
		procs := shards + 1
		runtime.GOMAXPROCS(procs)
		err := timeIt(fmt.Sprintf("monitor/pipeline-%dshard-bursty-1M", shards), &results, func() error {
			sk := monitor.Open(hdr, monitor.PipelineConfig{Shards: shards})
			sk.StepBatch(stream)
			if got := sk.Finish(); len(got) != mon.RaceCount() {
				return fmt.Errorf("pipeline reported %d races, sequential %d", len(got), mon.RaceCount())
			}
			return nil
		})
		runtime.GOMAXPROCS(prevProcs)
		if err != nil {
			return nil, err
		}
		results[len(results)-1].GoMaxProcs = procs
	}
	// Wire v2: encode the stream once, then time the batch decoder.
	var wireBuf bytes.Buffer
	if _, _, err := schedgen.Encode(&wireBuf, p, tb, opt, monitor.BinaryV2); err != nil {
		return nil, err
	}
	encoded := wireBuf.Bytes()
	if err := timeIt("monitor/wire-v2-decode-1M", &results, func() error {
		tr, err := monitor.NewTraceReader(bytes.NewReader(encoded))
		if err != nil {
			return err
		}
		var batch []monitor.Event
		n := 0
		for {
			var ok bool
			batch, ok, err = tr.NextBatch(batch[:0])
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			n += len(batch)
		}
		if n != nevents {
			return fmt.Errorf("decoded %d events, want %d", n, nevents)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	results[len(results)-1].EncodedBytes = len(encoded)
	// Skewed workload: a Zipf-skewed stream (hot nonatomic locations)
	// through the 4-shard pipeline on its static loc-mod-shards split,
	// so the hot locations load some back-ends more than others.
	skewOpt := opt
	skewOpt.LocSkew = 1.3
	skewStream, _, err := schedgen.Generate(p, tb, skewOpt, nil)
	if err != nil {
		return nil, err
	}
	seqSkew := tb.NewMonitor()
	seqSkew.StepBatch(skewStream)
	runtime.GOMAXPROCS(5)
	err = timeIt("monitor/skewed-zipf-1M", &results, func() error {
		sk := monitor.Open(hdr, monitor.PipelineConfig{Shards: 4})
		sk.StepBatch(skewStream)
		if got := sk.Finish(); len(got) != seqSkew.RaceCount() {
			return fmt.Errorf("skewed pipeline reported %d races, sequential %d", len(got), seqSkew.RaceCount())
		}
		return nil
	})
	runtime.GOMAXPROCS(prevProcs)
	if err != nil {
		return nil, err
	}
	results[len(results)-1].GoMaxProcs = 5
	// Compaction: a 16-thread unfair halting schedule sized so threads
	// retire throughout the second half of the stream — escalated vectors
	// go quiet as their writers halt and the surviving threads' sweeps
	// demote them back to epochs. EscalatedBefore counts the live
	// escalated vectors at end of stream with sweeps disabled
	// (escalations only accumulate); the timed run uses the default GC —
	// EscalatedAfter records what its compaction leaves.
	quietCfg := progsynth.ScaledDefaults()
	quietCfg.Threads = 16
	quietCfg.Iters = quietCfg.IterationsFor(nevents / 2)
	quietProg := progsynth.Scaled(1, quietCfg)
	quietTb := monitor.NewTable(quietProg)
	quietOpt := schedgen.Options{Policy: schedgen.Unfair, Seed: 1, MaxEvents: nevents,
		StaleReadPct: 10, EmitHalts: true}
	quietStream, _, err := schedgen.Generate(quietProg, quietTb, quietOpt, nil)
	if err != nil {
		return nil, err
	}
	noSweep := quietTb.NewMonitor()
	noSweep.SetGCInterval(1 << 62)
	noSweep.StepBatch(quietStream)
	escalatedAfter := 0
	if err := timeIt("monitor/compaction-quiet-1M", &results, func() error {
		m := quietTb.NewMonitor()
		m.StepBatch(quietStream)
		escalatedAfter = m.EscalatedVectors()
		return nil
	}); err != nil {
		return nil, err
	}
	results[len(results)-1].EscalatedBefore = noSweep.EscalatedVectors()
	results[len(results)-1].EscalatedAfter = escalatedAfter
	// Static prefilter: a private-heavy workload (per-thread private
	// pools taking 60% of the nonatomic data traffic) monitored with and
	// without the static certificate's skip mask. The certificate proves
	// the private locations race-free, so the filtered run skips their
	// checker work entirely; the report sets and RA retention must be
	// identical — the delta between the two rows is pure checker savings.
	privCfg := progsynth.ScaledDefaults()
	privCfg.PrivateLocs = 6
	privCfg.PrivatePct = 60
	privCfg.Iters = privCfg.IterationsFor(nevents)
	privProg := progsynth.Scaled(1, privCfg)
	privTb := monitor.NewTable(privProg)
	privStream, _, err := schedgen.Generate(privProg, privTb, opt, nil)
	if err != nil {
		return nil, err
	}
	privMask := monitor.StaticFilter(privTb.Decls(), staticrace.Analyze(privProg).RaceFree)
	if privMask == nil {
		return nil, fmt.Errorf("static analysis certified nothing on the private-heavy workload")
	}
	noFilter := privTb.NewMonitor()
	if err := timeIt("monitor/static-nofilter-1M", &results, func() error {
		noFilter.Reset()
		noFilter.StepBatch(privStream)
		return nil
	}); err != nil {
		return nil, err
	}
	withFilter := privTb.NewMonitor()
	withFilter.SetStaticFilter(privMask)
	if err := timeIt("monitor/static-prefilter-1M", &results, func() error {
		withFilter.Reset()
		withFilter.StepBatch(privStream)
		return nil
	}); err != nil {
		return nil, err
	}
	if !race.ReportsEqual(withFilter.Reports(), noFilter.Reports()) || withFilter.RAStats() != noFilter.RAStats() {
		return nil, fmt.Errorf("static prefilter changed the reports or RA stats")
	}
	results[len(results)-1].CertifiedLocs = monitor.FilteredLocs(privMask)
	// Predictive predicates over the same bursty 1M-event stream: the
	// sync-preserving row prices the write-side join suppression plus
	// the SP-clock bookkeeping; the distance-64 short-race row
	// additionally records the candidate window's peak live entry
	// count — the measured bounded-memory claim (peak ≤ k + GC
	// interval, independent of stream length). Both rows must report
	// at least the hb set; the short window here decides a subset of
	// syncp, so its count is sanity-checked against syncp's.
	syncpMon := tb.NewMonitor()
	syncpMon.SetPredicate(monitor.PredSyncP, 0)
	if err := timeIt("monitor/syncp-1M", &results, func() error {
		syncpMon.Reset()
		syncpMon.StepBatch(stream)
		return nil
	}); err != nil {
		return nil, err
	}
	if syncpMon.RaceCount() < mon.RaceCount() {
		return nil, fmt.Errorf("syncp reported %d races, fewer than hb's %d", syncpMon.RaceCount(), mon.RaceCount())
	}
	shortMon := tb.NewMonitor()
	shortMon.SetPredicate(monitor.PredShort, 64)
	if err := timeIt("monitor/short-k64-1M", &results, func() error {
		shortMon.Reset()
		shortMon.StepBatch(stream)
		return nil
	}); err != nil {
		return nil, err
	}
	ws := shortMon.WindowStats()
	if ws.Peak == 0 || ws.Peak > 64+4096 {
		return nil, fmt.Errorf("short:64 window peak %d outside (0, k+gc interval]", ws.Peak)
	}
	if shortMon.RaceCount() > syncpMon.RaceCount() {
		return nil, fmt.Errorf("short:64 reported %d races, more than syncp's %d", shortMon.RaceCount(), syncpMon.RaceCount())
	}
	results[len(results)-1].WindowPeakLive = ws.Peak
	for i := range results {
		// events/sec is meaningful only for rows that process the
		// 1M-event stream; the snapshot codec row times state encode +
		// decode, not event ingestion.
		if results[i].Name == "monitor/snapshot-roundtrip-1M" {
			continue
		}
		results[i].EventsPerSec = float64(nevents) / (results[i].NsPerOp / 1e9)
	}
	fmt.Printf("monitor throughput: %.1fM events/sec single-core (%d distinct races; RA live peak %d, %d collected, %.3f allocs/event)\n",
		results[online].EventsPerSec/1e6, mon.RaceCount(), st.Peak, st.Collected,
		results[online].AllocsPerEvent)
	fmt.Printf("telemetry overhead: %+.1f%% vs online-bursty-1M with a 1ms Obs().Snapshot() scraper\n",
		100*(results[obsRow].NsPerOp/results[online].NsPerOp-1))
	return results, nil
}

// benchCompare reruns the monitor benches in memory and diffs their
// events/sec against the committed -monitor-json baseline. Any tracked
// row regressing by more than 15% fails the run — the CI performance
// gate. It never writes the baseline file; regenerate it deliberately
// with bench-monitor when a trajectory change is intended.
func benchCompare() error {
	path := *monitorJSON
	if path == "" {
		return fmt.Errorf("bench-compare needs -monitor-json pointing at the committed baseline")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench-compare: %w (is the baseline committed?)", err)
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("bench-compare: baseline %s: %w", path, err)
	}
	// Provenance mismatches downgrade trust, not the exit code: numbers
	// from a different CPU or toolchain move for reasons that are not
	// regressions, so flag them loudly and let the human judge.
	if host := cpuModel(); doc.CPUModel != "" && doc.CPUModel != host {
		fmt.Printf("bench-compare: WARNING: baseline measured on %q, this host is %q — deltas may reflect hardware, not code\n",
			doc.CPUModel, host)
	}
	if v := runtime.Version(); doc.GoVersion != "" && doc.GoVersion != v {
		fmt.Printf("bench-compare: WARNING: baseline built with %s, this run with %s\n", doc.GoVersion, v)
	}
	base := map[string]benchResult{}
	for _, r := range doc.Results {
		base[r.Name] = r
	}
	fresh, err := benchMonitorResults()
	if err != nil {
		return err
	}
	const tolerance = 0.15
	regressions := 0
	fmt.Printf("\nbench-compare against %s (tolerance %.0f%%):\n", path, tolerance*100)
	for _, r := range fresh {
		b, ok := base[r.Name]
		if !ok || b.EventsPerSec <= 0 || r.EventsPerSec <= 0 {
			fmt.Printf("%-40s %41s\n", r.Name, "untracked (no baseline events/sec)")
			continue
		}
		ratio := r.EventsPerSec / b.EventsPerSec
		verdict := "ok"
		if ratio < 1-tolerance {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-40s %8.1fM -> %8.1fM ev/s  %+6.1f%%  %s\n",
			r.Name, b.EventsPerSec/1e6, r.EventsPerSec/1e6, 100*(ratio-1), verdict)
	}
	if regressions > 0 {
		return fmt.Errorf("%d row(s) regressed more than %.0f%% versus %s", regressions, tolerance*100, path)
	}
	fmt.Printf("bench-compare: all tracked rows within %.0f%% of %s\n", tolerance*100, path)
	return nil
}

// padding regenerates the §8.3 control experiment: nop padding alone
// reproduces the BAL/FBS "speedups" on the alignment-sensitive
// benchmarks.
func padding() error {
	arch := localdrf.ArchThunderX()
	for _, name := range []string{"sequence", "menhir-standard"} {
		b, ok := localdrf.BenchmarkByName(name)
		if !ok {
			return fmt.Errorf("missing benchmark %s", name)
		}
		fmt.Printf("%-18s baseline+nop=%.4f  BAL=%.4f  FBS=%.4f\n",
			name,
			localdrf.SimNormalized(b, arch, localdrf.PerfBaselinePadded),
			localdrf.SimNormalized(b, arch, localdrf.PerfBAL),
			localdrf.SimNormalized(b, arch, localdrf.PerfFBS))
	}
	fmt.Println("(values below 1.0 are the i-cache alignment artefact the paper diagnosed)")
	return nil
}
