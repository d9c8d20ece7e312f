package service

// The chaos harness: the PR's headline proof. Every fault schedule —
// disconnects mid-frame, corrupted bytes, torn checkpoint writes,
// SIGKILL-equivalent server restarts, combinations — must yield a final
// SessionResult byte-identical (canonical JSON: reports AND RAStats) to
// an uninterrupted run of the same trace. Faults are deterministic
// (exact byte offsets, exact operation ordinals), so a failure replays.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"localdrf/internal/faultinject"
)

// chaosFault is one deterministic client-side fault schedule, as a
// function of the attempt number and the trace length.
type chaosFault struct {
	name string
	wrap func(trace []byte) func(int, net.Conn) net.Conn
}

var chaosFaults = []chaosFault{
	{"none", func(trace []byte) func(int, net.Conn) net.Conn {
		return nil
	}},
	{"disconnect-mid-frame", func(trace []byte) func(int, net.Conn) net.Conn {
		return func(attempt int, conn net.Conn) net.Conn {
			if attempt == 0 {
				return faultinject.WrapConn(conn, faultinject.ConnPlan{CutAfter: int64(len(trace) / 3)})
			}
			return conn
		}
	}},
	{"double-disconnect", func(trace []byte) func(int, net.Conn) net.Conn {
		return func(attempt int, conn net.Conn) net.Conn {
			switch attempt {
			case 0:
				return faultinject.WrapConn(conn, faultinject.ConnPlan{CutAfter: int64(len(trace) / 4)})
			case 1:
				// The second cut lands PAST the first, so the resumed
				// session makes progress and then fails again.
				return faultinject.WrapConn(conn, faultinject.ConnPlan{CutAfter: int64(3 * len(trace) / 4)})
			}
			return conn
		}
	}},
	{"corrupt-then-cut", func(trace []byte) func(int, net.Conn) net.Conn {
		return func(attempt int, conn net.Conn) net.Conn {
			if attempt == 0 {
				return faultinject.WrapConn(conn, faultinject.ConnPlan{
					CorruptAt: int64(2 * len(trace) / 5), CutAfter: int64(3 * len(trace) / 5),
				})
			}
			return conn
		}
	}},
	{"corrupt-stream-continues", func(trace []byte) func(int, net.Conn) net.Conn {
		return func(attempt int, conn net.Conn) net.Conn {
			if attempt == 0 {
				return faultinject.WrapConn(conn, faultinject.ConnPlan{CorruptAt: int64(len(trace) / 2)})
			}
			return conn
		}
	}},
}

// TestChaosParityMatrix: every fault schedule × shard count ×
// checkpoint interval converges on the byte-identical uninterrupted
// outcome — reports and RAStats both, via CanonicalJSON.
func TestChaosParityMatrix(t *testing.T) {
	trace := genTrace(t, 101, 40_000)
	want := referenceResult(t, "chaos", trace)
	if want.RaceCount == 0 {
		t.Fatal("fixture trace has no races; not a useful chaos fixture")
	}
	for _, shards := range []int{1, 2, 4} {
		for _, every := range []uint64{5_000, 17_000} {
			for _, fault := range chaosFaults {
				name := fmt.Sprintf("%s/shards=%d/ck=%d", fault.name, shards, every)
				t.Run(name, func(t *testing.T) {
					s, addr := startServer(t, Config{
						Shards: shards, CheckpointDir: t.TempDir(),
						CheckpointEvery: every, CheckpointRing: 3,
					})
					res := runClient(t, addr, "chaos", trace, fault.wrap(trace))
					mustMatch(t, res, want)
					checkConservation(t, s)
				})
			}
		}
	}
}

// checkConservation closes s — after which its counters are exact — and
// checks that every admitted session ended exactly once: completed, or
// failed with an ingest error.
func checkConservation(t *testing.T, s *Server) {
	t.Helper()
	s.Close()
	started := counter(s, "service.sessions_started")
	completed := counter(s, "service.sessions_completed")
	failed := counter(s, "service.ingest_errors")
	if started != completed+failed {
		t.Errorf("sessions_started = %d, want sessions_completed + ingest_errors = %d + %d", started, completed, failed)
	}
}

// crashableServer serves on a fixed address and can be killed (Close
// drops every live connection without any checkpoint — in-memory state
// vanishes exactly as under SIGKILL; only fsynced ring entries survive)
// and restarted on the same address with the same checkpoint directory.
type crashableServer struct {
	t    *testing.T
	cfg  Config
	addr string
	cur  *Server
}

func startCrashable(t *testing.T, cfg Config) *crashableServer {
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = testReadTimeout
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cs := &crashableServer{t: t, cfg: cfg, addr: ln.Addr().String()}
	cs.cur = New(cfg)
	go cs.cur.Serve(ln)
	t.Cleanup(func() { cs.cur.Close() })
	return cs
}

// crash kills the running instance and boots a fresh one over the same
// checkpoint directory and address.
func (cs *crashableServer) crash() {
	checkConservation(cs.t, cs.cur)
	cs.cur = New(cs.cfg)
	// The address may need a moment to rebind after the old listener dies.
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		if ln, err = net.Listen("tcp", cs.addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		cs.t.Errorf("rebind %s: %v", cs.addr, err)
		return
	}
	go cs.cur.Serve(ln)
}

// slowClient streams a session with throttled writes so a crash landing
// mid-upload is deterministic-ish in coverage (the exact position varies,
// the OUTCOME must not).
func slowClient(addr, session string, trace []byte) *Client {
	return &Client{
		Addr: addr, Session: session,
		Source:   func() (io.Reader, error) { return bytes.NewReader(trace), nil },
		Attempts: 60, Backoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
		ChunkSize: 4 << 10,
		WrapConn: func(attempt int, conn net.Conn) net.Conn {
			return faultinject.WrapConn(conn, faultinject.ConnPlan{WriteDelay: time.Millisecond})
		},
	}
}

// gatedClient is a slowClient whose first attempt uploads half the
// trace and then holds until release is closed, so a crash before the
// release lands mid-ingest at any host speed; a retry finds the gate
// open.
func gatedClient(addr, session string, trace []byte, release chan struct{}) *Client {
	c := slowClient(addr, session, trace)
	half := len(trace) / 2
	c.Source = func() (io.Reader, error) {
		return io.MultiReader(bytes.NewReader(trace[:half]), gate{release}, bytes.NewReader(trace[half:])), nil
	}
	return c
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosServerCrashRestart: the server is killed mid-ingest and
// restarted; the session recovers from its checkpoint ring and finishes
// with the uninterrupted outcome.
func TestChaosServerCrashRestart(t *testing.T) {
	trace := genTrace(t, 211, 50_000)
	want := referenceResult(t, "crashy", trace)
	cs := startCrashable(t, Config{CheckpointDir: t.TempDir(), CheckpointEvery: 4_000})

	release := make(chan struct{})
	done := make(chan struct{})
	var res *SessionResult
	var runErr error
	go func() {
		defer close(done)
		res, runErr = gatedClient(cs.addr, "crashy", trace, release).Run()
	}()
	// The crash must leave a ring entry to recover from.
	waitFor(t, "a checkpoint before the crash", func() bool { return counter(cs.cur, "service.checkpoints") > 0 })
	cs.crash()
	close(release)
	<-done
	if runErr != nil {
		t.Fatalf("session did not survive the crash: %v", runErr)
	}
	mustMatch(t, res, want)
	// The restarted server admitted the session from its ring: a resume,
	// though no process saw it attach twice.
	if res.Resumed < 1 {
		t.Errorf("Resumed = %d after recovering across the restart, want ≥ 1", res.Resumed)
	}
	checkConservation(t, cs.cur)
}

// TestChaosCrashWithTornCheckpoint: the crash interacts with the
// checkpoint ring's own failure mode — one checkpoint file write tears
// (half its bytes, then an error). The crash comes once the torn (third)
// write has failed, with the two before it intact: the torn temp file
// must never become a ring entry, recovery must fall back to an intact
// generation, and the outcome must still match.
func TestChaosCrashWithTornCheckpoint(t *testing.T) {
	trace := genTrace(t, 307, 50_000)
	want := referenceResult(t, "torn", trace)
	ffs := faultinject.NewFS(faultinject.OS(), faultinject.FSPlan{TornNth: 3})
	cs := startCrashable(t, Config{CheckpointDir: t.TempDir(), CheckpointEvery: 4_000, FS: ffs,
		RetryAfter: 10 * time.Millisecond})

	release := make(chan struct{})
	done := make(chan struct{})
	var res *SessionResult
	var runErr error
	go func() {
		defer close(done)
		res, runErr = gatedClient(cs.addr, "torn", trace, release).Run()
	}()
	waitFor(t, "the torn checkpoint write after an intact one", func() bool {
		return counter(cs.cur, "service.checkpoint_failures") > 0 && counter(cs.cur, "service.checkpoints") > 0
	})
	cs.crash()
	close(release)
	<-done
	if runErr != nil {
		t.Fatalf("session did not survive crash + torn checkpoint: %v", runErr)
	}
	mustMatch(t, res, want)
	if res.Resumed < 1 {
		t.Errorf("Resumed = %d after recovering across the restart, want ≥ 1", res.Resumed)
	}
	checkConservation(t, cs.cur)
}

// TestChaosMultiSessionCrash: several concurrent sessions, one server
// crash mid-flight, once every session holds a ring entry — every
// session must recover and converge on its own reference outcome,
// independently.
func TestChaosMultiSessionCrash(t *testing.T) {
	const n = 6
	traces := make([][]byte, n)
	wants := make([]SessionResult, n)
	for i := range traces {
		traces[i] = genTrace(t, 400+int64(i), 30_000)
		wants[i] = referenceResult(t, fmt.Sprintf("multi-%d", i), traces[i])
	}
	dir := t.TempDir()
	cs := startCrashable(t, Config{CheckpointDir: dir, CheckpointEvery: 5_000})

	release := make(chan struct{})
	results := make([]*SessionResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range traces {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = gatedClient(cs.addr, fmt.Sprintf("multi-%d", i), traces[i], release).Run()
		}(i)
	}
	waitFor(t, "a ring entry for every session", func() bool {
		for i := range traces {
			if entries, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("multi-%d", i), "ck-*"+ckSuffix)); len(entries) == 0 {
				return false
			}
		}
		return true
	})
	cs.crash()
	close(release)
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Errorf("session multi-%d failed: %v", i, errs[i])
			continue
		}
		mustMatch(t, results[i], wants[i])
		if results[i].Resumed < 1 {
			t.Errorf("session multi-%d: Resumed = %d after recovering across the restart, want ≥ 1", i, results[i].Resumed)
		}
	}
	checkConservation(t, cs.cur)
}
