// Command racemond is the race-monitoring service: a long-running TCP
// server that accepts many concurrent wire-format trace sessions (one
// monitor, sequential or sharded, per session), checkpoints each session into a
// per-session ring of LDCK snapshot files, recovers every session from
// its newest valid ring entry after a crash, and sheds load explicitly
// when full. See internal/service for the protocol and the fault
// model.
//
// Usage:
//
//	racemond [-addr HOST:PORT] [-ckpt DIR] [-ckpt-every N] [-ckpt-ring K]
//	         [-max-sessions M] [-shards S] [-read-timeout D]
//	         [-idle-timeout D] [-retry-after D] [-stats-addr ADDR]
//	         [-quiet]
//
//	racemond -drive N -addr HOST:PORT [-events E] [-threads T]
//	         [-policy P] [-seed-base S] [-locs L] [-atomics A] [-ra R]
//	         [-stale PCT] [-halts] [-attempts A] [-backoff D] [-json]
//	         [-golden FILE] [-update-golden]
//
// The first form serves. The second is the load driver the CI smoke and
// the chaos drills use: it generates N deterministic schedgen traces
// (seeds seed-base .. seed-base+N-1), streams them as N concurrent
// sessions through the full client (bounded exponential backoff,
// resume-from-checkpoint), and prints one JSON document of the per-
// session results. Because every session's outcome is deterministic in
// its seed, the document can be checked against a committed golden —
// including across a server kill -9 + restart in the middle of the
// drive, which is exactly what the CI job does.
//
// -stats-addr serves the telemetry endpoint racemon serves too
// (obshttp.Serve): GET /stats (aggregate + ?session=ID views; see
// service.StatsHandler) plus expvar and pprof. The endpoint binds before
// the service starts, so an address in use exits non-zero instead of
// serving sessions without telemetry.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"reflect"
	"sort"
	"sync"
	"syscall"
	"time"

	"localdrf/internal/monitor"
	"localdrf/internal/obs/obshttp"
	"localdrf/internal/progsynth"
	"localdrf/internal/schedgen"
	"localdrf/internal/service"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "racemond: "+format+"\n", args...)
	os.Exit(1)
}

// usagef reports a flag error and exits 2, before anything runs.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "racemond: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7341", "listen address (serve mode) or server address (-drive)")
	ckptDir := flag.String("ckpt", "", "checkpoint-ring root directory ('' = no checkpointing)")
	ckptEvery := flag.Uint64("ckpt-every", 100_000, "checkpoint a session every N monitored events")
	ckptRing := flag.Int("ckpt-ring", 3, "snapshot generations kept per session")
	maxSessions := flag.Int("max-sessions", 64, "concurrently attached session cap (excess gets busy retry-after)")
	shards := flag.Int("shards", 1, "race back-ends per session (1 = sequential monitor)")
	readTimeout := flag.Duration("read-timeout", 10*time.Second, "per-read ingest deadline (slow-loris bound)")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "evict detached session bookkeeping after this idle time")
	retryAfter := flag.Duration("retry-after", time.Second, "backoff hint sent with busy rejections")
	statsAddr := flag.String("stats-addr", "", "serve /stats, expvar and pprof on this address")
	quiet := flag.Bool("quiet", false, "suppress per-session log lines")

	drive := flag.Int("drive", 0, "client mode: stream N concurrent generated sessions and print their results")
	events := flag.Int("events", 250_000, "-drive: schedule length per session")
	threads := flag.Int("threads", 8, "-drive: thread count of the generated programs")
	policy := flag.String("policy", "bursty", "-drive: scheduling policy fair|unfair|bursty")
	seedBase := flag.Int64("seed-base", 1, "-drive: session i uses seed seed-base+i")
	locs := flag.Int("locs", 48, "-drive: nonatomic location count")
	atomics := flag.Int("atomics", 8, "-drive: atomic location count")
	ra := flag.Int("ra", 8, "-drive: release-acquire location count")
	stale := flag.Int("stale", 10, "-drive: percent of stale reads (0..100)")
	halts := flag.Bool("halts", false, "-drive: emit thread-retirement events")
	attempts := flag.Int("attempts", 30, "-drive: connection attempts per session (rides through restarts)")
	backoff := flag.Duration("backoff", 100*time.Millisecond, "-drive: initial retry backoff")
	asJSON := flag.Bool("json", false, "-drive: emit the results as JSON (default: a summary line)")
	golden := flag.String("golden", "", "-drive: compare the deterministic results against this golden JSON")
	updateGolden := flag.Bool("update-golden", false, "-drive: rewrite the -golden file instead of comparing")
	flag.Parse()

	// A negative count or duration would not fail loudly inside the
	// service: -max-sessions -1 sheds every admission, a negative
	// -read-timeout turns off the slow-loris deadline.
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"-max-sessions", int64(*maxSessions)}, {"-ckpt-ring", int64(*ckptRing)}, {"-shards", int64(*shards)},
		{"-read-timeout", int64(*readTimeout)}, {"-idle-timeout", int64(*idleTimeout)},
		{"-retry-after", int64(*retryAfter)}, {"-backoff", int64(*backoff)},
	} {
		if f.v < 0 {
			usagef("%s must not be negative (0 selects the default)", f.name)
		}
	}

	if *drive > 0 {
		pol, err := schedgen.ParsePolicy(*policy)
		if err != nil {
			usagef("%v", err)
		}
		dp := driveParams{
			addr: *addr, n: *drive, events: *events, threads: *threads,
			policy: pol, seedBase: *seedBase, locs: *locs, atomics: *atomics,
			ra: *ra, stale: *stale, halts: *halts, attempts: *attempts,
			backoff: *backoff, asJSON: *asJSON, golden: *golden, update: *updateGolden,
		}
		if err := schedgen.CheckScaled(dp.config(), dp.events); err != nil {
			usagef("%v", err)
		}
		runDrive(dp)
		return
	}

	cfg := service.Config{
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		CheckpointRing:  *ckptRing,
		MaxSessions:     *maxSessions,
		Shards:          *shards,
		ReadTimeout:     *readTimeout,
		IdleTimeout:     *idleTimeout,
		RetryAfter:      *retryAfter,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "racemond: "+format+"\n", args...)
		}
	}
	srv := service.New(cfg)
	if *statsAddr != "" {
		if _, _, err := obshttp.Serve(*statsAddr, srv.StatsHandler()); err != nil {
			fatalf("%v", err)
		}
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "racemond: shutting down (attached sessions revert to their last checkpoint)")
		srv.Close()
	}()
	fmt.Fprintf(os.Stderr, "racemond: serving on %s (ckpt=%q every=%d ring=%d max-sessions=%d shards=%d)\n",
		*addr, *ckptDir, *ckptEvery, *ckptRing, *maxSessions, *shards)
	if err := srv.ListenAndServe(*addr); err != nil {
		fatalf("%v", err)
	}
}

// ---- drive mode ----

type driveParams struct {
	addr     string
	n        int
	events   int
	threads  int
	policy   schedgen.Policy
	seedBase int64
	locs     int
	atomics  int
	ra       int
	stale    int
	halts    bool
	attempts int
	backoff  time.Duration
	asJSON   bool
	golden   string
	update   bool
}

// driveDoc is the drive's output: the deterministic per-session results
// plus run-dependent aggregates (which the golden comparison excludes).
type driveDoc struct {
	Sessions     []service.SessionResult `json:"sessions"`
	TotalEvents  uint64                  `json:"total_events"`
	ElapsedNs    int64                   `json:"elapsed_ns"`
	EventsPerSec float64                 `json:"events_per_sec"`
	Resumes      int                     `json:"resumes"`
}

// driveGolden is the deterministic subset compared against the golden.
type driveGolden struct {
	Sessions []goldenSession `json:"sessions"`
}

type goldenSession struct {
	Session   string             `json:"session"`
	Events    uint64             `json:"events"`
	RaceCount int                `json:"race_count"`
	Races     []service.RaceJSON `json:"races"`
}

// config is the progsynth configuration every session's program is
// built from, sized for the requested schedule length.
func (dp driveParams) config() progsynth.ScaledConfig {
	cfg := progsynth.ScaledDefaults()
	cfg.Threads = dp.threads
	cfg.NonAtomic = dp.locs
	cfg.Atomics = dp.atomics
	cfg.RAs = dp.ra
	cfg.Iters = cfg.IterationsFor(dp.events)
	return cfg
}

// genTrace encodes session i's deterministic wire-v2 trace.
func (dp driveParams) genTrace(i int) []byte {
	seed := dp.seedBase + int64(i)
	p := progsynth.Scaled(seed, dp.config())
	tb := monitor.NewTable(p)
	var buf bytes.Buffer
	opts := schedgen.Options{
		Policy: dp.policy, Seed: seed, MaxEvents: dp.events,
		StaleReadPct: dp.stale, EmitHalts: dp.halts,
	}
	if _, _, err := schedgen.Encode(&buf, tb.Program(), tb, opts, monitor.BinaryV2); err != nil {
		fatalf("generate session %d: %v", i, err)
	}
	return buf.Bytes()
}

func runDrive(dp driveParams) {
	traces := make([][]byte, dp.n)
	var genWG sync.WaitGroup
	for i := range traces {
		genWG.Add(1)
		go func(i int) {
			defer genWG.Done()
			traces[i] = dp.genTrace(i)
		}(i)
	}
	genWG.Wait()

	results := make([]*service.SessionResult, dp.n)
	errs := make([]error, dp.n)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range traces {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &service.Client{
				Addr:     dp.addr,
				Session:  fmt.Sprintf("drive-%d", dp.seedBase+int64(i)),
				Source:   func() (io.Reader, error) { return bytes.NewReader(traces[i]), nil },
				Attempts: dp.attempts,
				Backoff:  dp.backoff,
			}
			results[i], errs[i] = c.Run()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	doc := driveDoc{ElapsedNs: elapsed.Nanoseconds()}
	failed := 0
	for i, res := range results {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "racemond: session drive-%d: %v\n", dp.seedBase+int64(i), errs[i])
			failed++
			continue
		}
		doc.Sessions = append(doc.Sessions, *res)
		doc.TotalEvents += res.Events
		doc.Resumes += res.Resumed
	}
	sort.Slice(doc.Sessions, func(i, j int) bool { return doc.Sessions[i].Session < doc.Sessions[j].Session })
	doc.EventsPerSec = float64(doc.TotalEvents) / elapsed.Seconds()
	if failed > 0 {
		fatalf("%d of %d sessions failed", failed, dp.n)
	}

	if dp.golden != "" {
		if err := checkDriveGolden(dp.golden, dp.update, doc); err != nil {
			fatalf("%v", err)
		}
	}
	if dp.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatalf("%v", err)
		}
		return
	}
	fmt.Printf("racemond drive: %d sessions, %d events, %.1f ms, %.2fM ev/s aggregate, %d resumes\n",
		dp.n, doc.TotalEvents, float64(elapsed.Nanoseconds())/1e6, doc.EventsPerSec/1e6, doc.Resumes)
}

// checkDriveGolden compares (or rewrites) the deterministic subset of
// the drive results against a committed golden file.
func checkDriveGolden(path string, update bool, doc driveDoc) error {
	got := driveGolden{Sessions: []goldenSession{}}
	for _, s := range doc.Sessions {
		got.Sessions = append(got.Sessions, goldenSession{
			Session: s.Session, Events: s.Events, RaceCount: s.RaceCount, Races: s.Races,
		})
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
	var want driveGolden
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("golden %s: %w", path, err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("drive results differ from golden %s (regenerate with -update-golden if the change is intended)", path)
	}
	return nil
}
