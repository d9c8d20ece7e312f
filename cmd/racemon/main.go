// Command racemon runs the online happens-before race monitor over a
// long concrete schedule — the million-event workload the exhaustive
// checkers cannot reach. The schedule is either generated in-process
// (from a scaled random program) or ingested from a raw trace in the
// wire format of internal/monitor.
//
// Usage:
//
//	racemon [-events N] [-threads K] [-policy fair|unfair|bursty]
//	        [-locs L] [-atomics A] [-ra R] [-stale PCT] [-halts]
//	        [-seed S] [-skew S] [-private-locs N] [-private-pct PCT]
//	        [-shards M] [-predicate hb|syncp|short:k] [-static-prefilter]
//	        [-trace FILE|-] [-emit FILE] [-format binary|text]
//	        [-json] [-max-races N] [-golden FILE] [-update-golden]
//	        [-checkpoint FILE] [-checkpoint-at N] [-resume FILE]
//	        [-stats-addr ADDR] [-stats-linger DUR]
//
// The workload flags of the first two lines describe one
// schedgen.Scaled: the first line is the flag set racemond -drive
// registers too, through the same schedgen.Scaled.Flags.
//
// Every monitoring mode builds its engine with monitor.Open: a
// sequential monitor at -shards 1 (the default), or with -shards M > 1
// a sharded one — one sync front-end pass, M race back-ends (clamped
// to the nonatomic location count). Reports are
// identical at any shard count. The generated modes refuse a workload
// the generator or the wire format cannot carry (schedgen.Scaled.Check:
// a count below 1, a percentage outside 0..100, a skew that is negative
// or not finite, a header over the format's thread or location limits)
// with exit 2 before anything runs or any file is created.
//
// Modes:
//
//	(default)  generate and monitor in one fused pass, never
//	           materialising the schedule: memory stays O(locations +
//	           threads²) plus the windowed live RA-message set (and the
//	           back-ends' bounded rings), regardless of -events. The
//	           JSON summary names this mode "stream".
//	-trace F   ingest a raw trace (binary or text wire format, sniffed
//	           automatically) from file F, or from stdin with "-", and
//	           monitor it in one bounded-memory pass (binary frames are
//	           decoded and fed a batch at a time). Generation flags are
//	           ignored.
//	-emit F    generate the schedule and write it to F in the wire
//	           format (-format binary|text; binary is the
//	           delta-compressed framed encoding) without monitoring —
//	           the producer side of -trace.
//
// -halts appends a thread-retirement event when a generated thread runs
// to completion (both wire formats and the monitor understand it; it
// never changes reports, only RA retention).
//
// -predicate selects the race predicate the monitor decides (see
// internal/monitor's predictive-detection overview): "hb" (the
// default) reports happens-before races over the observed trace;
// "syncp" reports sync-preserving predictable races — a superset of
// the hb set, witnessing races a feasible reordering of the observed
// trace could expose; "short:k" (k ≥ 1) restricts syncp to access
// pairs at most k events apart, bounding the candidate state to O(k)
// per location regardless of trace length. Every monitoring mode
// accepts it, at any shard count, with identical reports. -emit does
// not monitor, so combining it with a non-default -predicate is an
// error. A checkpoint records its monitor's predicate, which is
// authoritative on -resume (a conflicting -predicate is ignored with a
// warning).
// With -json the summary carries the predicate and, for short:k, the
// window's live/peak candidate counts.
//
// -skew S redirects each generated nonatomic access to a location drawn
// from a Zipf distribution with exponent S (0 = uniform, the default) —
// hot-location workloads for a sharded monitor, whose back-ends own
// locations by the static loc-mod-shards split.
//
// -static-prefilter analyses the generated program and skips checker
// work on the locations it certifies race-free. The certificate covers
// the program's traces only, so the flag exits 2 with -emit or -trace
// (with or without -resume: a trace does not carry its program) and
// with -skew, whose redirected accesses reach locations the program's
// threads never touch.
//
// Checkpoint/resume: -checkpoint FILE snapshots the monitor (front-end
// and, when sharded, back-ends) in the LDCK format of
// internal/monitor — at the end of the run, or, with -checkpoint-at N,
// after the N-th monitored event, stopping there. Works in every
// monitoring mode (not with -emit). -resume FILE (with -trace) restores
// the snapshot and continues over the trace, skipping the
// already-monitored prefix by count. A checkpoint is the monitor's
// state alone, byte-identical whichever mode or trace format wrote it,
// so it resumes over any trace of the same event stream (e.g. the -emit
// of the same seed and parameters, in either format).
// Resuming with -shards M > 1 routes every restored location's state to
// the back-end owning it. The resumed report set is byte-identical to a
// run that never stopped. A static prefilter is not recorded: a sound
// filter only leaves the certified locations' state empty, and no
// access can race there, so a checkpoint of a -static-prefilter run
// resumes over the -emit trace, unfiltered, with the same reports.
//
// Telemetry: -stats-addr ADDR serves the live obs-registry snapshot
// over HTTP while the run ingests, through obshttp.Serve, the endpoint
// racemond's -stats-addr serves too; an address in use is fatal. GET
// /stats returns the merged monitor.*/pipeline.* metrics as JSON with
// the process uptime as uptime_ns (counters are monotonic; a client
// computes rates from two scrapes, so concurrent scrapers never disturb
// each other); /debug/vars is expvar; /debug/pprof/* are the standard
// profile handlers. -stats-linger DUR keeps the endpoint alive after
// the run so short CI runs can be scraped. With -json, the summary's
// "stats" object carries the final exact snapshot. Scrapes read atomics
// the hot path publishes at GC sweeps and batch boundaries — they never
// lock the monitor.
//
// Examples:
//
//	racemon -shards 4 -events 5000000 -json
//	racemon -events 5000000 -json
//	racemon -emit trace.bin -events 100000 && racemon -trace trace.bin
//	racemon -emit - -format text -events 50 -threads 2 | head
//	racemon -trace - < trace.bin
//	racemon -trace trace.bin -checkpoint ck.ldck -checkpoint-at 50000
//	racemon -trace trace.bin -resume ck.ldck -shards 4 -json
//
// The monitor reports every distinct data race (def. 9/10 pairs,
// deduplicated by location, thread pair and access kinds). -json emits a
// machine-readable summary including monitoring events/sec and the RA
// message retention stats (live, peak, collected) of the windowed GC.
// -golden FILE compares the deterministic report set against a committed
// golden JSON and exits nonzero on any difference (CI uses this);
// -update-golden rewrites FILE instead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"time"

	"localdrf/internal/monitor"
	"localdrf/internal/obs"
	"localdrf/internal/predict"
	"localdrf/internal/prog"
	"localdrf/internal/race"
	"localdrf/internal/schedgen"
	"localdrf/internal/staticrace"
)

type result struct {
	Program      string  `json:"program"`
	Mode         string  `json:"mode"`
	Threads      int     `json:"threads"`
	Policy       string  `json:"policy,omitempty"`
	Seed         int64   `json:"seed"`
	Events       int     `json:"events"`
	Completed    bool    `json:"completed"`
	Shards       int     `json:"shards"`
	GenNs        int64   `json:"gen_ns"`
	MonitorNs    int64   `json:"monitor_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	RaceCount    int     `json:"race_count"`
	// The RA retention stats are omitted when they are zero.
	RALive      int    `json:"ra_live,omitempty"`
	RALivePeak  int    `json:"ra_live_peak,omitempty"`
	RACollected uint64 `json:"ra_collected,omitempty"`
	// Predictive-detection results. Predicate is the decided race
	// predicate ("syncp", "short:k"); omitted for the default hb so
	// existing consumers and goldens see unchanged JSON. The window
	// fields are the short:k candidate-window telemetry (peak is the
	// bounded-memory claim, measured).
	Predicate    string `json:"predicate,omitempty"`
	WindowK      int    `json:"window_k,omitempty"`
	WindowLive   int    `json:"window_live,omitempty"`
	WindowPeak   int    `json:"window_peak,omitempty"`
	WindowPruned uint64 `json:"window_pruned,omitempty"`
	// Static analysis results, present with -static-prefilter: how many
	// nonatomic locations the sound static pass certified race-free
	// (their checker work is skipped) vs left in the may-race set.
	StaticCertified int               `json:"static_certified,omitempty"`
	StaticMayRace   int               `json:"static_may_race,omitempty"`
	Races           []race.ReportJSON `json:"races,omitempty"`
	Locations       locationsJSON     `json:"locations"`
	// Stats is the final telemetry snapshot of the run's monitor
	// (monitor.*, pipeline.* — see internal/monitor's metric catalogue).
	// Absent for -emit, which does not monitor.
	Stats *obs.Snapshot `json:"stats,omitempty"`
}

type locationsJSON struct {
	NonAtomic int `json:"nonatomic"`
	Atomic    int `json:"atomic"`
	RA        int `json:"ra"`
}

// goldenDoc is the deterministic subset of the JSON summary that the
// -golden flag compares (timings and throughput vary run to run; the
// report set must not).
type goldenDoc struct {
	RaceCount int               `json:"race_count"`
	Races     []race.ReportJSON `json:"races"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "racemon: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	work := schedgen.Scaled{
		Seed: 1, Events: 1_000_000, Threads: 8, Policy: schedgen.Fair,
		Locs: 48, Atomics: 8, RAs: 8, Stale: 10,
	}
	work.Flags(flag.CommandLine)
	flag.Int64Var(&work.Seed, "seed", work.Seed, "generator seed (program and schedule)")
	flag.Float64Var(&work.Skew, "skew", work.Skew, "Zipf exponent skewing generated nonatomic accesses toward hot locations (0 = uniform)")
	flag.IntVar(&work.PrivateLocs, "private-locs", work.PrivateLocs, "thread-private nonatomic locations per thread (certifiable by -static-prefilter)")
	flag.IntVar(&work.PrivatePct, "private-pct", work.PrivatePct, "percent of nonatomic data traffic redirected to the accessing thread's private pool")
	shards := flag.Int("shards", 1, "race back-ends monitoring location shards in parallel (1 = sequential monitor)")
	predicateS := flag.String("predicate", "hb", "race predicate: hb (observed-trace happens-before), syncp (sync-preserving predictable races) or short:k (syncp within k events)")
	staticPrefilter := flag.Bool("static-prefilter", false, "run the sound static may-race analysis over the generated program and skip checker work for certified locations (report set unchanged)")
	asJSON := flag.Bool("json", false, "emit a JSON summary")
	maxRaces := flag.Int("max-races", 20, "race reports listed in the output (0 = all)")
	traceFile := flag.String("trace", "", "monitor a wire-format trace from FILE ('-' = stdin) instead of generating")
	emitFile := flag.String("emit", "", "generate and write the wire-format trace to FILE ('-' = stdout) instead of monitoring")
	formatS := flag.String("format", "binary", "wire format for -emit: binary|text")
	golden := flag.String("golden", "", "compare the deterministic report set against this golden JSON file")
	updateGolden := flag.Bool("update-golden", false, "rewrite the -golden file instead of comparing")
	checkpointFile := flag.String("checkpoint", "", "write a monitor snapshot to FILE (at end of run, or at -checkpoint-at)")
	checkpointAt := flag.Uint64("checkpoint-at", 0, "snapshot after this many monitored events and stop (0 = at end)")
	resumeFile := flag.String("resume", "", "restore the monitor from this snapshot and skip the events it covers (-trace only, either format)")
	statsAddr := flag.String("stats-addr", "", "serve live telemetry over HTTP on this address (GET /stats, /debug/vars, /debug/pprof)")
	statsLinger := flag.Duration("stats-linger", 0, "keep the -stats-addr endpoint alive this long after the run finishes")
	flag.Parse()

	format, err := monitor.ParseFormat(*formatS)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	spec, err := predict.Parse(*predicateS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "racemon: "+err.Error())
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "racemon: -shards must be ≥ 1")
		os.Exit(2)
	}
	if *traceFile != "" && *emitFile != "" {
		fmt.Fprintln(os.Stderr, "racemon: -trace and -emit are mutually exclusive")
		os.Exit(2)
	}
	if *resumeFile != "" && *traceFile == "" {
		fmt.Fprintln(os.Stderr, "racemon: -resume continues over a recorded trace; it needs -trace FILE")
		os.Exit(2)
	}
	if *checkpointAt > 0 && *checkpointFile == "" {
		fmt.Fprintln(os.Stderr, "racemon: -checkpoint-at needs -checkpoint FILE")
		os.Exit(2)
	}
	if *checkpointFile != "" && *emitFile != "" {
		fmt.Fprintln(os.Stderr, "racemon: -checkpoint cannot be used with -emit, which does not monitor")
		os.Exit(2)
	}
	if *updateGolden && *golden == "" {
		fmt.Fprintln(os.Stderr, "racemon: -update-golden needs -golden FILE")
		os.Exit(2)
	}
	if *golden != "" && *emitFile != "" {
		fmt.Fprintln(os.Stderr, "racemon: -emit does not monitor, so there is no report set for -golden")
		os.Exit(2)
	}
	if *statsLinger > 0 && *statsAddr == "" {
		fmt.Fprintln(os.Stderr, "racemon: -stats-linger keeps the HTTP endpoint alive; it needs -stats-addr")
		os.Exit(2)
	}
	if *emitFile != "" && spec.Pred != monitor.PredHB {
		fmt.Fprintln(os.Stderr, "racemon: -emit does not monitor, so -predicate has no effect; drop it or monitor the trace instead")
		os.Exit(2)
	}
	if msg := staticFilterDecision(*staticPrefilter, *traceFile, *emitFile, work.Skew); msg != "" {
		fmt.Fprintln(os.Stderr, "racemon: "+msg)
		os.Exit(2)
	}
	if *traceFile == "" {
		// Generated modes: refuse a workload the generator or the wire
		// format cannot carry before anything runs.
		if err := work.Check(); err != nil {
			fmt.Fprintln(os.Stderr, "racemon: "+err.Error())
			os.Exit(2)
		}
	}

	if *statsAddr != "" {
		startStats(*statsAddr)
		if *statsLinger > 0 {
			defer func() {
				fmt.Fprintf(os.Stderr, "racemon: stats endpoint lingering %s\n", *statsLinger)
				time.Sleep(*statsLinger)
			}()
		}
	}

	ck := ckParams{file: *checkpointFile, at: *checkpointAt}
	cfg := monitor.PipelineConfig{Shards: *shards, Predicate: spec.Pred, WindowK: spec.K}
	var res result
	var reports []race.Report
	switch {
	case *traceFile != "":
		res, reports = runTrace(*traceFile, *resumeFile, cfg, ck)
	case *emitFile != "":
		res = runEmit(*emitFile, format, work)
	default:
		res, reports = runGenerated(work, *staticPrefilter, cfg, ck)
	}

	listed := reports
	if *maxRaces > 0 && len(listed) > *maxRaces {
		listed = listed[:*maxRaces]
	}
	for _, r := range listed {
		res.Races = append(res.Races, r.JSON())
	}

	if *golden != "" {
		if err := checkGolden(*golden, *updateGolden, reports); err != nil {
			fatalf("%v", err)
		}
	}

	// When the trace itself goes to stdout (-emit -), the summary must
	// not be interleaved with it.
	out := os.Stdout
	if *emitFile == "-" {
		out = os.Stderr
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatalf("%v", err)
		}
		return
	}

	fmt.Fprintf(out, "program   %s  (%d threads; %d nonatomic / %d atomic / %d ra locations)\n",
		res.Program, res.Threads, res.Locations.NonAtomic, res.Locations.Atomic, res.Locations.RA)
	if res.Mode == "emit" {
		fmt.Fprintf(out, "emitted   %d events (%s wire format)\n", res.Events, format)
		return
	}
	if res.Policy != "" {
		fmt.Fprintf(out, "schedule  %d events, policy=%s, seed=%d, stale=%d%%\n",
			res.Events, res.Policy, res.Seed, work.Stale)
	} else {
		fmt.Fprintf(out, "trace     %d events\n", res.Events)
	}
	fmt.Fprintf(out, "monitor   %8.1f ms  (%.1fM events/sec, %d shard(s), mode=%s)\n",
		float64(res.MonitorNs)/1e6, res.EventsPerSec/1e6, res.Shards, res.Mode)
	fmt.Fprintf(out, "ra msgs   live=%d peak=%d collected=%d (windowed GC)\n",
		res.RALive, res.RALivePeak, res.RACollected)
	if res.Predicate != "" {
		fmt.Fprintf(out, "predict   predicate=%s", res.Predicate)
		if res.WindowK > 0 {
			fmt.Fprintf(out, "  window live=%d peak=%d pruned=%d", res.WindowLive, res.WindowPeak, res.WindowPruned)
		}
		fmt.Fprintln(out)
	}
	if res.StaticCertified+res.StaticMayRace > 0 {
		fmt.Fprintf(out, "static    %d certified (checker work skipped), %d may-race\n",
			res.StaticCertified, res.StaticMayRace)
	}
	fmt.Fprintf(out, "races     %d distinct\n", res.RaceCount)
	for _, r := range listed {
		fmt.Fprintf(out, "    %s\n", r)
	}
	if len(listed) < len(reports) {
		fmt.Fprintf(out, "    … and %d more (raise -max-races to list)\n", len(reports)-len(listed))
	}
}

// staticMask runs the static analysis over the generated program,
// records the verdict counts in res, and returns the monitor skip mask
// (nil when nothing certified).
func staticMask(tb *monitor.Table, res *result) []bool {
	rep := staticrace.Analyze(tb.Program())
	res.StaticCertified = len(rep.Certified)
	res.StaticMayRace = len(rep.MayRace)
	return monitor.StaticFilter(tb.Decls(), rep.RaceFree)
}

// ckParams bundles the checkpoint flags: where to write the snapshot
// and at which absolute monitored-event index to stop (0 = end of run).
type ckParams struct {
	file string
	at   uint64
}

// errCheckpointStop aborts generation cleanly once -checkpoint-at is
// reached.
var errCheckpointStop = errors.New("checkpoint reached")

// writeSnapshot writes one snapshot via the given encoder.
func writeSnapshot(path string, snap func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("checkpoint: %v", err)
	}
	if err := snap(f); err != nil {
		fatalf("checkpoint: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("checkpoint: %v", err)
	}
}

// runGenerated monitors a generated schedule fused with its generation,
// so the schedule never exists in memory and -checkpoint-at can stop
// the run at an exact event.
func runGenerated(work schedgen.Scaled, prefilter bool, cfg monitor.PipelineConfig, ck ckParams) (result, []race.Report) {
	tb, name := work.Program()
	res := result{
		Program: name, Mode: "stream", Threads: tb.Threads(), Policy: work.Policy.String(), Seed: work.Seed,
	}
	fillLocations(&res, tb.Decls())
	if prefilter {
		cfg.StaticFilter = staticMask(tb, &res)
	}
	m := monitor.Open(monitor.Header{Threads: tb.Threads(), Decls: tb.Decls()}, cfg)
	tel.attach(m.Obs())
	start := time.Now()
	completed, err := schedgen.StreamBatch(tb.Program(), tb, work.Options(), 0, func(evs []monitor.Event) error {
		if ck.at > 0 {
			if remaining := ck.at - m.Events(); uint64(len(evs)) >= remaining {
				m.StepBatch(evs[:remaining])
				return errCheckpointStop
			}
		}
		m.StepBatch(evs)
		return nil
	})
	if err == errCheckpointStop {
		err, completed = nil, false
	}
	if err != nil {
		fatalf("stream: %v", err)
	}
	res.Completed = completed
	if ck.file != "" {
		writeSnapshot(ck.file, m.Snapshot)
	}
	return res, finish(&res, m, start)
}

// runTrace ingests a wire-format trace from a file or stdin, optionally
// resuming from a snapshot and/or checkpointing mid-ingest.
func runTrace(path, resumePath string, cfg monitor.PipelineConfig, ck ckParams) (result, []race.Report) {
	var rd io.Reader = os.Stdin
	name := "stdin"
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		rd, name = f, path
	}
	start := time.Now()
	tr, err := monitor.NewTraceReader(rd)
	if err != nil {
		fatalf("trace: %v", err)
	}
	hdr := tr.Header()
	var m *monitor.Monitor
	if resumePath != "" {
		f, err := os.Open(resumePath)
		if err != nil {
			fatalf("resume: %v", err)
		}
		snap, err := monitor.ReadSnapshot(f)
		f.Close()
		if err != nil {
			fatalf("resume: %v", err)
		}
		if err := tr.ResumeAt(snap); err != nil {
			fatalf("resume %s: %v", name, err)
		}
		m = snap.Open(cfg)
		requested := predict.Spec{Pred: cfg.Predicate, K: cfg.WindowK}
		if warn := predicateOverrideWarning(requested, m.Predicate(), m.WindowK()); warn != "" {
			fmt.Fprintln(os.Stderr, "racemon: "+warn)
		}
	} else {
		m = monitor.Open(hdr, cfg)
	}
	tel.attach(m.Obs())

	// Completed records whether the run actually observed the end of
	// the trace, as opposed to stopping at -checkpoint-at. The last
	// batch is cut at the stop, as in runGenerated; a run resumed at or
	// past the stop checkpoints at once.
	completed := true
	for {
		if ck.at > 0 && m.Events() >= ck.at {
			completed = false
			break
		}
		batch, ok, err := tr.NextBatch(nil)
		if err != nil {
			fatalf("trace: %v", err)
		}
		if !ok {
			break
		}
		if ck.at > 0 {
			batch = batch[:min(uint64(len(batch)), ck.at-m.Events())]
		}
		m.StepBatch(batch)
	}
	if ck.file != "" {
		writeSnapshot(ck.file, m.Snapshot)
	}

	res := result{
		Program: "trace:" + name, Mode: "trace", Threads: hdr.Threads,
		Completed: completed,
	}
	fillLocations(&res, hdr.Decls)
	return res, finish(&res, m, start)
}

// predicateOverrideWarning: a checkpoint records its monitor's
// predicate, and on -resume that record is authoritative (the restored
// clocks and window only mean anything under it). When the command
// line asks for a different, non-default predicate, the user gets told
// the flag lost rather than discovering it from the report set.
func predicateOverrideWarning(requested predict.Spec, pred monitor.Predicate, k int) string {
	restored := predict.Spec{Pred: pred, K: k}
	if requested.Pred == monitor.PredHB || requested == restored {
		return ""
	}
	return fmt.Sprintf("-predicate %s ignored: the snapshot was taken under %s, which is authoritative on -resume", requested, restored)
}

// staticFilterDecision refuses -static-prefilter wherever the program's
// certificate does not cover the monitored stream: -emit and -trace
// (a trace does not carry its program, with or without -resume) and a
// -skew stream, whose redirected accesses reach locations the program's
// threads never touch — filtering those would drop real races.
func staticFilterDecision(prefilter bool, traceFile, emitFile string, skew float64) string {
	switch {
	case !prefilter:
		return ""
	case emitFile != "":
		return "-static-prefilter analyses the generated program; it cannot be used with -emit"
	case traceFile != "":
		return "-static-prefilter analyses the generated program; it cannot be used with -trace"
	case skew != 0:
		return "-static-prefilter certifies the program's traces, and -skew redirects accesses outside them; drop one"
	default:
		return ""
	}
}

// fillLocations tallies a program's or a trace header's declarations
// into the summary.
func fillLocations(res *result, decls []monitor.LocDecl) {
	for _, d := range decls {
		switch d.Kind {
		case prog.Atomic:
			res.Locations.Atomic++
		case prog.ReleaseAcquire:
			res.Locations.RA++
		default:
			res.Locations.NonAtomic++
		}
	}
}

// runEmit generates a schedule straight into the wire format.
func runEmit(path string, format monitor.Format, work schedgen.Scaled) result {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fatalf("%v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatalf("%v", err)
			}
		}()
		w = f
	}
	tb, name := work.Program()
	start := time.Now()
	n, completed, err := schedgen.Encode(w, tb.Program(), tb, work.Options(), format)
	if err != nil {
		fatalf("emit: %v", err)
	}
	res := result{
		Program: name, Mode: "emit", Threads: tb.Threads(), Policy: work.Policy.String(),
		Seed: work.Seed, Events: n, Completed: completed, Shards: 1,
		GenNs: time.Since(start).Nanoseconds(),
	}
	fillLocations(&res, tb.Decls())
	return res
}

// finish drains the monitor and records its outcome in the summary:
// timing since start, throughput, the back-ends that ran, RA
// retention, the decided predicate (PredHB leaves those fields zero, so
// default summaries are unchanged) with its short:k window telemetry,
// and the final metrics snapshot.
func finish(res *result, m *monitor.Monitor, start time.Time) []race.Report {
	reports := m.Finish()
	res.MonitorNs = time.Since(start).Nanoseconds()
	res.Events = int(m.Events())
	if res.MonitorNs > 0 {
		res.EventsPerSec = float64(res.Events) / (float64(res.MonitorNs) / 1e9)
	}
	res.RaceCount = len(reports)
	res.Shards = m.Shards()
	st := m.RAStats()
	res.RALive, res.RALivePeak, res.RACollected = st.Live, st.Peak, st.Collected
	if pred := m.Predicate(); pred != monitor.PredHB {
		res.Predicate = predict.Spec{Pred: pred, K: m.WindowK()}.String()
		if pred == monitor.PredShort {
			ws := m.WindowStats()
			res.WindowK = m.WindowK()
			res.WindowLive, res.WindowPeak, res.WindowPruned = ws.Live, ws.Peak, ws.Pruned
		}
	}
	stats := m.Stats()
	res.Stats = &stats
	return reports
}

// checkGolden compares (or, with update, rewrites) the deterministic
// report set against a committed golden file.
func checkGolden(path string, update bool, reports []race.Report) error {
	got := goldenDoc{RaceCount: len(reports), Races: []race.ReportJSON{}}
	for _, r := range reports {
		got.Races = append(got.Races, r.JSON())
	}
	if update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	var want goldenDoc
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("golden %s: %w", path, err)
	}
	if !reflect.DeepEqual(got, want) {
		diff := "sets differ"
		for i := 0; i < len(got.Races) || i < len(want.Races); i++ {
			switch {
			case i >= len(got.Races):
				diff = fmt.Sprintf("missing %+v", want.Races[i])
			case i >= len(want.Races):
				diff = fmt.Sprintf("unexpected %+v", got.Races[i])
			case got.Races[i] != want.Races[i]:
				diff = fmt.Sprintf("got %+v, want %+v", got.Races[i], want.Races[i])
			default:
				continue
			}
			break
		}
		return fmt.Errorf("report set differs from golden %s: got %d races, want %d; first difference: %s (regenerate with -update-golden if the change is intended)",
			path, got.RaceCount, want.RaceCount, diff)
	}
	return nil
}
