package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"localdrf/internal/faultinject"
	"localdrf/internal/monitor"
	"localdrf/internal/obs"
	"localdrf/internal/progsynth"
	"localdrf/internal/schedgen"
)

// genTrace builds a deterministic wire-v2 trace: the same generator
// stack racemon uses, so service ingest is tested on realistic streams
// (RA edges, atomics, stale reads, races).
func genTrace(t testing.TB, seed int64, events int) []byte {
	t.Helper()
	return genTraceFormat(t, seed, events, monitor.BinaryV2)
}

// genTraceFormat is genTrace in the given wire encoding.
func genTraceFormat(t testing.TB, seed int64, events int, format monitor.Format) []byte {
	t.Helper()
	cfg := progsynth.ScaledDefaults()
	cfg.Threads = 6
	cfg.NonAtomic = 24
	cfg.Atomics = 6
	cfg.RAs = 6
	cfg.Iters = cfg.IterationsFor(events)
	p := progsynth.Scaled(seed, cfg)
	tb := monitor.NewTable(p)
	var buf bytes.Buffer
	opts := schedgen.Options{Policy: schedgen.Bursty, Seed: seed, MaxEvents: events, StaleReadPct: 10}
	if _, _, err := schedgen.Encode(&buf, tb.Program(), tb, opts, format); err != nil {
		t.Fatalf("generate trace: %v", err)
	}
	return buf.Bytes()
}

// referenceResult monitors the trace bytes with a plain sequential
// monitor — the ground truth every service journey must match
// byte-identically (canonical JSON, journey fields excluded).
func referenceResult(t testing.TB, session string, trace []byte) SessionResult {
	t.Helper()
	tr, err := monitor.NewTraceReader(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("reference reader: %v", err)
	}
	m := tr.NewMonitor()
	for {
		batch, more, err := tr.NextBatch(nil)
		if err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		if !more {
			break
		}
		m.StepBatch(batch)
	}
	reports := m.Reports()
	st := m.RAStats()
	res := SessionResult{
		Session: session, Events: m.Events(), RaceCount: len(reports),
		Races:  make([]RaceJSON, 0, len(reports)),
		RALive: st.Live, RAPeak: st.Peak, RACollected: st.Collected,
	}
	for _, r := range reports {
		res.Races = append(res.Races, r.JSON())
	}
	return res
}

// testReadTimeout replaces the 10s default read timeout in tests. A
// retry that arrives while the server is still draining the cut
// connection's backlog is told "busy retry-after <ReadTimeout>"; under
// the race detector that backlog takes long enough to hit this often,
// and a 10s hint per hit made the chaos matrix take minutes.
const testReadTimeout = time.Second

// startServer builds and serves a Server on a loopback port.
func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = testReadTimeout
	}
	s := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

// runClient streams trace as one session and returns the result.
func runClient(t testing.TB, addr, session string, trace []byte, wrap func(int, net.Conn) net.Conn) *SessionResult {
	t.Helper()
	c := &Client{
		Addr: addr, Session: session,
		Source:   func() (io.Reader, error) { return bytes.NewReader(trace), nil },
		Attempts: 20, Backoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
		// Small chunks so server-side progress (and checkpoints) interleave
		// with injected fault positions at fine granularity.
		ChunkSize: 8 << 10,
		WrapConn:  wrap,
	}
	res, err := c.Run()
	if err != nil {
		t.Fatalf("session %s: %v", session, err)
	}
	return res
}

// mustMatch asserts a journey produced the reference outcome.
func mustMatch(t testing.TB, got *SessionResult, want SessionResult) {
	t.Helper()
	if g, w := string(got.CanonicalJSON()), string(want.CanonicalJSON()); g != w {
		t.Fatalf("session outcome diverged from the uninterrupted reference\ngot  %s\nwant %s", g, w)
	}
}

// counter reads a service counter by name from the registry snapshot.
// A handler may still be running after its client has the result (the
// done line goes out before sessions_completed moves), so counters are
// exact only once Close has waited for every handler: assertions that
// follow a client result read through closedCounter.
func counter(s *Server, name string) uint64 {
	return s.reg.Snapshot().Counters[name]
}

// closedCounter closes the server and then reads the counter.
func closedCounter(s *Server, name string) uint64 {
	s.Close()
	return counter(s, name)
}

// TestServiceBasic: an unfaulted session completes and matches the
// sequential reference — through a sequential monitor and through a
// sharded pipeline.
func TestServiceBasic(t *testing.T) {
	trace := genTrace(t, 7, 60_000)
	want := referenceResult(t, "basic", trace)
	if want.RaceCount == 0 {
		t.Fatal("fixture trace has no races; not a useful test")
	}
	for _, shards := range []int{1, 4} {
		s, addr := startServer(t, Config{Shards: shards, CheckpointDir: t.TempDir(), CheckpointEvery: 10_000})
		res := runClient(t, addr, "basic", trace, nil)
		mustMatch(t, res, want)
		if res.Resumed != 0 {
			t.Fatalf("shards=%d: uninterrupted session reports %d resumes", shards, res.Resumed)
		}
		if got := closedCounter(s, "service.sessions_completed"); got != 1 {
			t.Fatalf("shards=%d: sessions_completed = %d, want 1", shards, got)
		}
	}
}

// TestServiceResumesAfterDisconnect: the first attempt's connection is
// cut mid-upload; the session reverts to its newest checkpoint and the
// retry resumes it to the identical outcome.
func TestServiceResumesAfterDisconnect(t *testing.T) {
	trace := genTrace(t, 11, 80_000)
	want := referenceResult(t, "cutme", trace)
	s, addr := startServer(t, Config{CheckpointDir: t.TempDir(), CheckpointEvery: 8_000})
	res := runClient(t, addr, "cutme", trace, func(attempt int, conn net.Conn) net.Conn {
		if attempt == 0 {
			return faultinject.WrapConn(conn, faultinject.ConnPlan{CutAfter: int64(len(trace) / 2)})
		}
		return conn
	})
	mustMatch(t, res, want)
	if res.Resumed < 1 {
		t.Fatal("cut session reports no resume")
	}
	if got := closedCounter(s, "service.sessions_recovered"); got < 1 {
		t.Fatalf("sessions_recovered = %d, want >= 1", got)
	}
	if got := counter(s, "service.stream_truncated"); got < 1 {
		t.Fatalf("stream_truncated = %d, want >= 1", got)
	}
}

// TestServiceTextTraceCheckpoints: a text-trace session checkpoints too —
// like every snapshot, its snapshots resume by event count — so a
// session cut mid-upload recovers to the reference outcome, no
// checkpoint fails, and the server stays healthy: the next handshake is
// admitted.
func TestServiceTextTraceCheckpoints(t *testing.T) {
	trace := genTraceFormat(t, 29, 60_000, monitor.Text)
	want := referenceResult(t, "text", trace)
	s, addr := startServer(t, Config{CheckpointDir: t.TempDir(), CheckpointEvery: 10_000})
	res := runClient(t, addr, "text", trace, func(attempt int, conn net.Conn) net.Conn {
		if attempt == 0 {
			return faultinject.WrapConn(conn, faultinject.ConnPlan{CutAfter: int64(len(trace) / 2)})
		}
		return conn
	})
	mustMatch(t, res, want)
	s.mu.Lock()
	deg := s.degraded
	s.mu.Unlock()
	if deg {
		t.Fatal("server degraded after a text-trace session")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "%s %d session next\n", protoMagic, protoVersion)
	line, err := bufio.NewReader(conn).ReadString('\n')
	conn.Close()
	if err != nil || !strings.HasPrefix(line, "ok ") {
		t.Fatalf("handshake after the text session: %q %v, want ok", line, err)
	}
	if got := closedCounter(s, "service.checkpoint_failures"); got != 0 {
		t.Fatalf("checkpoint_failures = %d, want 0", got)
	}
	if got := counter(s, "service.checkpoints"); got < 1 {
		t.Fatalf("checkpoints = %d, want >= 1", got)
	}
	if got := counter(s, "service.sessions_recovered"); got < 1 {
		t.Fatalf("sessions_recovered = %d, want >= 1", got)
	}
}

// TestServiceDetectsCorruption: a flipped byte mid-stream must be caught
// by the chunk CRC (never decoded), end the attempt server-side, and the
// clean retry must still converge on the reference outcome.
func TestServiceDetectsCorruption(t *testing.T) {
	trace := genTrace(t, 13, 60_000)
	want := referenceResult(t, "corrupt", trace)
	s, addr := startServer(t, Config{CheckpointDir: t.TempDir(), CheckpointEvery: 10_000})
	res := runClient(t, addr, "corrupt", trace, func(attempt int, conn net.Conn) net.Conn {
		if attempt == 0 {
			// Flip a byte well into the stream, then let the upload finish:
			// only the CRC layer can notice.
			return faultinject.WrapConn(conn, faultinject.ConnPlan{CorruptAt: int64(len(trace) * 2 / 3)})
		}
		return conn
	})
	mustMatch(t, res, want)
	if got := closedCounter(s, "service.chunk_crc_errors"); got != 1 {
		t.Fatalf("chunk_crc_errors = %d, want 1", got)
	}
}

// TestServiceSheds: with the session cap occupied, a second session gets
// an explicit busy retry-after, and succeeds once the cap frees up.
func TestServiceSheds(t *testing.T) {
	trace := genTrace(t, 17, 20_000)
	s, addr := startServer(t, Config{MaxSessions: 1, RetryAfter: 10 * time.Millisecond})

	// Occupy the only slot with a raw half-open session.
	occupier, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(occupier, "racemond 1 session hog\n")
	okLine := make([]byte, 16)
	if _, err := occupier.Read(okLine); err != nil {
		t.Fatal(err)
	}

	c := &Client{
		Addr: addr, Session: "shedme",
		Source:   func() (io.Reader, error) { return bytes.NewReader(trace), nil },
		Attempts: 1,
	}
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("second session with cap 1: err = %v, want busy", err)
	}

	occupier.Close()
	// The slot frees once the server notices the disconnect; the bounded
	// retry loop must ride that out and complete. Every attempt before
	// the last was shed too.
	want := referenceResult(t, "shedme", trace)
	lastAttempt := 0
	res := runClient(t, addr, "shedme", trace, func(attempt int, conn net.Conn) net.Conn {
		lastAttempt = attempt
		return conn
	})
	mustMatch(t, res, want)
	if got, want := closedCounter(s, "service.sessions_rejected"), uint64(1+lastAttempt); got != want {
		t.Fatalf("sessions_rejected = %d, want %d", got, want)
	}
}

// TestServiceSlowLoris: a client that stalls mid-upload is cut off by
// the per-read deadline rather than pinning a session slot forever.
func TestServiceSlowLoris(t *testing.T) {
	s, addr := startServer(t, Config{ReadTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "racemond 1 session loris\n")
	br := make([]byte, 64)
	if _, err := conn.Read(br); err != nil { // ok line
		t.Fatal(err)
	}
	// Send a fragment of a chunk, then stall.
	trace := genTrace(t, 19, 5_000)
	cw := &chunkWriter{w: conn}
	if _, err := cw.Write(trace[:100]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for counter(s, "service.ingest_timeouts") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never timed out the stalled session")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The slot must be free again.
	deadline = time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := s.attachedN
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled session still attached (%d)", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceCheckpointBackpressure: when checkpoint writes fail (full
// disk), the server goes degraded and sheds NEW admissions — it must not
// take on recovery obligations it cannot persist — and recovers as soon
// as a checkpoint write succeeds again.
func TestServiceCheckpointBackpressure(t *testing.T) {
	trace := genTrace(t, 23, 60_000)
	// Fail the first checkpoint sync, let later ones through.
	ffs := faultinject.NewFS(faultinject.OS(), faultinject.FSPlan{FailSyncNth: 1})
	s, addr := startServer(t, Config{
		CheckpointDir: t.TempDir(), CheckpointEvery: 10_000, FS: ffs,
		RetryAfter: 5 * time.Millisecond,
	})
	want := referenceResult(t, "degraded", trace)
	res := runClient(t, addr, "degraded", trace, nil)
	mustMatch(t, res, want) // a failed checkpoint must not corrupt the outcome
	if got := closedCounter(s, "service.checkpoint_failures"); got != 1 {
		t.Fatalf("checkpoint_failures = %d, want 1", got)
	}
	if got := counter(s, "service.checkpoints"); got < 1 {
		t.Fatalf("checkpoints = %d, want >= 1 (degraded must clear on success)", got)
	}
	s.mu.Lock()
	deg := s.degraded
	s.mu.Unlock()
	if deg {
		t.Fatal("server still degraded after a successful checkpoint")
	}
}

// TestServiceRejectsBadHandshake: garbage and invalid session ids get an
// explicit protocol error.
func TestServiceRejectsBadHandshake(t *testing.T) {
	_, addr := startServer(t, Config{})
	for _, line := range []string{
		"GET / HTTP/1.1\n",
		"racemond 2 session x\n",
		"racemond 1 session ../escape\n",
		"racemond 1 session .hidden\n",
		"racemond 1 session " + strings.Repeat("a", 65) + "\n",
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(conn, line)
		reply, _ := io.ReadAll(conn)
		conn.Close()
		if !strings.HasPrefix(string(reply), "err ") {
			t.Fatalf("handshake %q: reply %q, want err", strings.TrimSpace(line), reply)
		}
	}
}

// TestServiceStatsEndpoint: the aggregate view carries the session table
// and both metric namespaces; the per-session view serves the live
// registry; unknown sessions 404.
func TestServiceStatsEndpoint(t *testing.T) {
	trace := genTrace(t, 29, 30_000)
	s, addr := startServer(t, Config{})
	runClient(t, addr, "statsme", trace, nil)

	h := s.StatsHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	body := rec.Body.String()
	if rec.Code != 200 {
		t.Fatalf("GET /stats: %d", rec.Code)
	}
	for _, want := range []string{"service.sessions_completed", "uptime_ns", "sessions"} {
		if !strings.Contains(body, want) {
			t.Fatalf("GET /stats missing %q:\n%s", want, body)
		}
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats?session=nosuch", nil))
	if rec.Code != 404 {
		t.Fatalf("GET /stats?session=nosuch: %d, want 404", rec.Code)
	}
}

// gate is a trace source part that blocks until release is closed,
// holding its session attached mid-upload.
type gate struct{ release chan struct{} }

func (g gate) Read([]byte) (int, error) {
	<-g.release
	return 0, io.EOF
}

// TestServiceStatsAggregateSums: the /stats monitors aggregate sums
// every counter and histogram over the attached sessions — two here,
// each held mid-upload past a GC sweep and a checkpoint — and carries
// none of their gauges or vectors, which only ?session=ID serves.
func TestServiceStatsAggregateSums(t *testing.T) {
	s, addr := startServer(t, Config{CheckpointDir: t.TempDir(), CheckpointEvery: 5_000, ReadTimeout: 30 * time.Second})
	ids := []string{"sum-a", "sum-b"}
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i, id := range ids {
		trace := genTrace(t, 41+int64(i), 30_000)
		half := len(trace) / 2
		c := &Client{
			Addr: addr, Session: id, ChunkSize: 8 << 10,
			Source: func() (io.Reader, error) {
				return io.MultiReader(bytes.NewReader(trace[:half]), gate{release}, bytes.NewReader(trace[half:])), nil
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Run(); err != nil {
				t.Errorf("session %s: %v", id, err)
			}
		}()
	}
	defer func() {
		close(release)
		wg.Wait()
	}()
	// metrics returns each session's live registry snapshot (nil while
	// one is not attached).
	metrics := func() []*obs.Snapshot {
		s.mu.Lock()
		defer s.mu.Unlock()
		out := make([]*obs.Snapshot, len(ids))
		for i, id := range ids {
			if sess := s.sessions[id]; sess != nil && sess.reg != nil {
				snap := sess.reg.Snapshot()
				out[i] = &snap
			}
		}
		return out
	}
	ready := func(ms []*obs.Snapshot) bool {
		for _, m := range ms {
			if m == nil || m.Counter("monitor.gc.sweeps") == 0 || m.Histograms["monitor.snapshot.encode_bytes"].Count == 0 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the two sessions did not both pass a GC sweep and a checkpoint")
		}
		before := metrics()
		agg := s.statsSnapshot().Monitors
		// Counters and histograms only grow: equal snapshots either side
		// of the aggregate mean it saw these values.
		if !ready(before) || !reflect.DeepEqual(before, metrics()) {
			continue
		}
		a, b := before[0], before[1]
		for name, v := range a.Counters {
			if got, want := agg.Counter(name), v+b.Counter(name); got != want {
				t.Errorf("aggregate counter %s = %d, want %d + %d", name, got, v, b.Counter(name))
			}
		}
		for name, h := range a.Histograms {
			if got, want := agg.Histograms[name].Count, h.Count+b.Histograms[name].Count; got != want {
				t.Errorf("aggregate histogram %s count = %d, want %d", name, got, want)
			}
		}
		if len(agg.Gauges) != 0 || len(agg.Vectors) != 0 {
			t.Errorf("aggregate carries gauges %v and vectors %v", agg.Gauges, agg.Vectors)
		}
		return
	}
}

// TestServiceStatsScrapesAreStable: /stats publishes monotonic counters
// and uptime, no rates against "the previous scrape", so two
// back-to-back scrapes of an idle server differ only in uptime_ns — a
// scraper cannot shrink another's rate window.
func TestServiceStatsScrapesAreStable(t *testing.T) {
	s, addr := startServer(t, Config{})
	runClient(t, addr, "stable", genTrace(t, 31, 20_000), nil)
	s.Close() // idle: every handler has exited
	scrape := func() map[string]json.RawMessage {
		rec := httptest.NewRecorder()
		s.StatsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("GET /stats: %v\n%s", err, rec.Body.String())
		}
		if _, ok := doc["uptime_ns"]; !ok {
			t.Fatalf("GET /stats has no uptime_ns:\n%s", rec.Body.String())
		}
		delete(doc, "uptime_ns")
		return doc
	}
	first, second := scrape(), scrape()
	if len(first) != len(second) {
		t.Fatalf("scrapes have different keys: %d vs %d", len(first), len(second))
	}
	for k, v := range first {
		if !bytes.Equal(v, second[k]) {
			t.Fatalf("%q differs between back-to-back scrapes:\n%s\n%s", k, v, second[k])
		}
	}
	if !bytes.Contains(first["service"], []byte(`"service.sessions_completed": 1`)) {
		t.Fatalf("service object lacks the completed session:\n%s", first["service"])
	}
}

// TestServiceIdleEviction: detached session bookkeeping is evicted after
// the idle timeout (the on-disk ring would survive; the table must not
// grow without bound).
func TestServiceIdleEviction(t *testing.T) {
	s, addr := startServer(t, Config{IdleTimeout: 100 * time.Millisecond, ReadTimeout: 50 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "racemond 1 session fleeting\n")
	buf := make([]byte, 16)
	conn.Read(buf)
	conn.Close() // abnormal end: session detaches, stays tracked
	deadline := time.Now().Add(5 * time.Second)
	for counter(s, "service.sessions_evicted") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session never evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
