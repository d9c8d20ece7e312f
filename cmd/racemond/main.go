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
//
//	racemond -drive N -addr HOST:PORT [-events E] [-threads T]
//	         [-policy P] [-locs L] [-atomics A] [-ra R] [-stale PCT]
//	         [-halts] [-seed-base S] [-attempts A] [-backoff D] [-json]
//	         [-golden FILE] [-update-golden]
//
// The first form serves; it logs one line per session event to stderr
// (redirect it to silence them). The second is the load driver the CI
// smoke and the chaos drills use: it generates N deterministic schedgen
// traces (seeds seed-base .. seed-base+N-1), streams them as N
// concurrent sessions through the full client (bounded exponential
// backoff, resume-from-checkpoint), and prints a summary line — or,
// with -json, one JSON document of the per-session results. Its
// workload flags, -events through -halts, are the ones racemon takes,
// registered and validated by the same schedgen.Scaled. Because every
// session's outcome is deterministic in its seed, the results can be
// checked against a committed golden with -golden — including across a
// server kill -9 + restart in the middle of the drive, which is exactly
// what the CI job does.
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

// options is every racemond flag. The serve-mode flags write straight
// into the service.Config the server is built from, and the drive-mode
// flags into the driveParams the drive runs from.
type options struct {
	addr      string
	statsAddr string
	svc       service.Config
	drive     driveParams
}

// register declares every flag on fs, bound to a fresh options.
func register(fs *flag.FlagSet) *options {
	o := &options{drive: driveParams{work: schedgen.Scaled{
		Seed: 1, Events: 250_000, Threads: 8, Policy: schedgen.Bursty,
		Locs: 48, Atomics: 8, RAs: 8, Stale: 10,
	}}}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7341", "listen address (serve mode) or server address (-drive)")
	fs.StringVar(&o.svc.CheckpointDir, "ckpt", "", "checkpoint-ring root directory ('' = no checkpointing)")
	fs.Uint64Var(&o.svc.CheckpointEvery, "ckpt-every", 100_000, "checkpoint a session every N monitored events")
	fs.IntVar(&o.svc.CheckpointRing, "ckpt-ring", 3, "snapshot generations kept per session")
	fs.IntVar(&o.svc.MaxSessions, "max-sessions", 64, "concurrently attached session cap (excess gets busy retry-after)")
	fs.IntVar(&o.svc.Shards, "shards", 1, "race back-ends per session (1 = sequential monitor)")
	fs.DurationVar(&o.svc.ReadTimeout, "read-timeout", 10*time.Second, "per-read ingest deadline (slow-loris bound)")
	fs.DurationVar(&o.svc.IdleTimeout, "idle-timeout", 5*time.Minute, "evict detached session bookkeeping after this idle time")
	fs.DurationVar(&o.svc.RetryAfter, "retry-after", time.Second, "backoff hint sent with busy rejections")
	fs.StringVar(&o.statsAddr, "stats-addr", "", "serve /stats, expvar and pprof on this address")

	dp := &o.drive
	fs.IntVar(&dp.n, "drive", 0, "client mode: stream N concurrent generated sessions and print their results")
	dp.work.Flags(fs)
	fs.Int64Var(&dp.work.Seed, "seed-base", dp.work.Seed, "-drive: session i uses seed seed-base+i")
	fs.IntVar(&dp.attempts, "attempts", 30, "-drive: connection attempts per session (rides through restarts)")
	fs.DurationVar(&dp.backoff, "backoff", 100*time.Millisecond, "-drive: initial retry backoff")
	fs.BoolVar(&dp.asJSON, "json", false, "-drive: emit the results as JSON (default: a summary line)")
	fs.StringVar(&dp.golden, "golden", "", "-drive: compare the deterministic results against this golden JSON")
	fs.BoolVar(&dp.update, "update-golden", false, "-drive: rewrite the -golden file instead of comparing")
	return o
}

// check refuses flag values that would not fail loudly later: a
// negative count or duration (-max-sessions -1 sheds every admission, a
// negative -read-timeout turns off the slow-loris deadline), and, with
// -drive, a workload the generator cannot carry.
func (o *options) check() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"-max-sessions", int64(o.svc.MaxSessions)}, {"-ckpt-ring", int64(o.svc.CheckpointRing)},
		{"-shards", int64(o.svc.Shards)}, {"-read-timeout", int64(o.svc.ReadTimeout)},
		{"-idle-timeout", int64(o.svc.IdleTimeout)}, {"-retry-after", int64(o.svc.RetryAfter)},
		{"-backoff", int64(o.drive.backoff)},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s must not be negative (0 selects the default)", f.name)
		}
	}
	if o.drive.n > 0 {
		return o.drive.work.Check()
	}
	return nil
}

func main() {
	o := register(flag.CommandLine)
	flag.Parse()
	if err := o.check(); err != nil {
		usagef("%v", err)
	}

	if o.drive.n > 0 {
		doc, err := o.drive.run(o.addr)
		if err != nil {
			fatalf("%v", err)
		}
		o.drive.report(doc)
		return
	}

	cfg := o.svc
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "racemond: "+format+"\n", args...)
	}
	srv := service.New(cfg)
	if o.statsAddr != "" {
		if _, _, err := obshttp.Serve(o.statsAddr, srv.StatsHandler()); err != nil {
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
		o.addr, cfg.CheckpointDir, cfg.CheckpointEvery, cfg.CheckpointRing, cfg.MaxSessions, cfg.Shards)
	if err := srv.ListenAndServe(o.addr); err != nil {
		fatalf("%v", err)
	}
}

// ---- drive mode ----

// driveParams is the drive's configuration: n sessions, session i
// streaming the workload work with seed work.Seed+i.
type driveParams struct {
	n        int
	work     schedgen.Scaled
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

// genTrace encodes session i's deterministic wire-v2 trace.
func (dp driveParams) genTrace(i int) []byte {
	work := dp.work
	work.Seed += int64(i)
	tb, _ := work.Program()
	var buf bytes.Buffer
	if _, _, err := schedgen.Encode(&buf, tb.Program(), tb, work.Options(), monitor.BinaryV2); err != nil {
		fatalf("generate session %d: %v", i, err)
	}
	return buf.Bytes()
}

// session names session i of the drive.
func (dp driveParams) session(i int) string {
	return fmt.Sprintf("drive-%d", dp.work.Seed+int64(i))
}

// run generates the drive's traces, streams them as concurrent sessions
// to the server at addr, and collects the results, sorted by session.
func (dp driveParams) run(addr string) (driveDoc, error) {
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
				Addr:     addr,
				Session:  dp.session(i),
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
			fmt.Fprintf(os.Stderr, "racemond: session %s: %v\n", dp.session(i), errs[i])
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
		return doc, fmt.Errorf("%d of %d sessions failed", failed, dp.n)
	}
	return doc, nil
}

// report checks the drive's results against -golden, then prints them.
func (dp driveParams) report(doc driveDoc) {
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
		dp.n, doc.TotalEvents, float64(doc.ElapsedNs)/1e6, doc.EventsPerSec/1e6, doc.Resumes)
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
