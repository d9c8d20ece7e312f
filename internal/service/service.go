// Package service implements racemond: a long-running, fault-tolerant,
// multi-tenant race-monitoring server over the LDTR wire format, plus
// the resume-capable client that feeds it.
//
// Each TCP connection carries one session: a named trace stream
// monitored by its own Monitor, sequential or sharded. Sessions
// survive everything the transport and the process can do to them —
// disconnects, corrupted bytes, truncated uploads, slow clients,
// full disks, and SIGKILL of the server itself — because durable state
// lives in a per-session ring of LDCK checkpoint files (see ring.go)
// and the protocol's resume rule is radically simple: the client always
// replays its trace from byte 0, and the server skips the events the
// newest checkpoint already monitored (TraceReader.ResumeAt). The
// final report set and RAStats of a session are therefore
// byte-identical to an uninterrupted run, a property PR 5's metamorphic
// split-resume harness proves for the monitor core and this package's
// chaos harness proves end-to-end through injected faults.
//
// Failure rule: on ANY abnormal session end (transport error, CRC
// mismatch, decode error, ingest timeout) the live monitor state is
// DISCARDED, never checkpointed — the stream position of a failed
// session is untrustworthy by definition, and the newest ring entry is
// the last state proven consistent. Corruption thereby collapses into
// the disconnection case: detected by the chunk CRC before the decoder
// sees it, session reverts to the last checkpoint.
//
// Overload: admission is shed with an explicit "busy retry-after <ms>"
// when the active-session cap is reached or when checkpoint writes are
// failing (checkpoint backpressure: a service that cannot persist
// recovery points must not take on new recovery obligations). Attached
// sessions are bounded by per-read ingest deadlines (a slow-loris
// client times out and reverts to its last checkpoint) and detached
// session bookkeeping is evicted after an idle timeout.
package service

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"localdrf/internal/faultinject"
	"localdrf/internal/monitor"
	"localdrf/internal/obs"
)

// Config tunes a Server. The zero value serves with defaults: no
// checkpointing (sessions restart from event 0 on any failure),
// sequential monitors, 64 sessions, 10s ingest timeout. A peer's trace
// header is bounded by the wire format's own 1 MiB header budget.
type Config struct {
	// CheckpointDir is the root of the per-session checkpoint rings
	// ("" disables checkpointing; sessions then recover by full replay).
	// Sessions of either trace format checkpoint, and every snapshot
	// resumes by event count. A ring entry the codec cannot decode,
	// such as one written in an older snapshot version, is skipped like
	// a torn one.
	CheckpointDir string
	// CheckpointEvery checkpoints a session after every N monitored
	// events (0 means the default, 100000; requires CheckpointDir).
	CheckpointEvery uint64
	// CheckpointRing is how many snapshot generations each session
	// keeps (0 means the default, 3). Recovery falls back entry by
	// entry past corrupt files, so more generations tolerate more torn
	// writes.
	CheckpointRing int
	// MaxSessions caps concurrently attached sessions; excess
	// admissions are shed with "busy retry-after" (0 means the default,
	// 64; a negative cap sheds every admission).
	MaxSessions int
	// Shards > 1 gives each session's Monitor that many race back-ends
	// instead of running it sequentially (values < 1 mean 1; see
	// monitor.Open, which clamps it to the trace's nonatomic location
	// count).
	// Reports are identical either way; shards trade per-session cores
	// for per-session throughput.
	Shards int
	// ReadTimeout bounds every read from a client connection — the
	// slow-loris defence (0 means the default, 10s; a negative value
	// disables the deadline).
	ReadTimeout time.Duration
	// IdleTimeout evicts the in-memory bookkeeping of detached
	// sessions (0 means the default, 5m). The on-disk ring survives
	// eviction; a later resume recovers from it.
	IdleTimeout time.Duration
	// RetryAfter is the backoff hint sent with "busy" rejections
	// (0 means the default, 1s).
	RetryAfter time.Duration
	// FS is the filesystem the checkpoint rings write through
	// (default the real one; the chaos harness injects faults here).
	FS faultinject.FS
	// Logf, when non-nil, receives one line per notable session event.
	Logf func(format string, args ...any)
}

func (cfg Config) withDefaults() Config {
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 100_000
	}
	if cfg.CheckpointRing == 0 {
		cfg.CheckpointRing = 3
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = 64
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 10 * time.Second
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.FS == nil {
		cfg.FS = faultinject.OS()
	}
	return cfg
}

// session is the server's bookkeeping for one trace stream. Fields are
// guarded by Server.mu; at most one connection is attached at a time,
// and only the attached handler goroutine touches the session's monitor.
type session struct {
	id        string
	attached  bool
	completed bool
	resumed   int    // re-attachments, and a first admission that recovered from the ring
	events    uint64 // events monitored as of the last detach/checkpoint
	races     int    // race count as of completion
	lastSeen  time.Time
	reg       *obs.Registry // the attached monitor's registry (nil when detached)
}

// svcCells caches the service-level metric cells (service.* namespace,
// alongside the monitor.*/pipeline.* catalogues).
type svcCells struct {
	attached     *obs.Gauge   // service.sessions_attached: currently ingesting
	tracked      *obs.Gauge   // service.sessions_tracked: known to the in-memory table
	degraded     *obs.Gauge   // service.degraded: 1 while checkpoint writes fail (new admissions shed)
	started      *obs.Counter // service.sessions_started: admissions (first + re-attach)
	completed    *obs.Counter // service.sessions_completed: clean END + done reply
	rejected     *obs.Counter // service.sessions_rejected: busy replies
	recovered    *obs.Counter // service.sessions_recovered: attaches restored from a ring entry
	evicted      *obs.Counter // service.sessions_evicted: idle bookkeeping drops
	ingestErrs   *obs.Counter // service.ingest_errors: abnormal session ends
	crcErrs      *obs.Counter // service.chunk_crc_errors: corrupt chunks detected
	truncated    *obs.Counter // service.stream_truncated: disconnects mid-upload
	timeouts     *obs.Counter // service.ingest_timeouts: reads past ReadTimeout
	ckpts        *obs.Counter // service.checkpoints: ring entries written
	ckptFailures *obs.Counter // service.checkpoint_failures: ring writes failed
	ckptSkipped  *obs.Counter // service.checkpoint_corrupt_entries: ring entries skipped at recovery
	bytesIn      *obs.Counter // service.bytes_in: raw connection bytes read
}

func newSvcCells(reg *obs.Registry) svcCells {
	return svcCells{
		attached:     reg.Gauge("service.sessions_attached"),
		tracked:      reg.Gauge("service.sessions_tracked"),
		degraded:     reg.Gauge("service.degraded"),
		started:      reg.Counter("service.sessions_started"),
		completed:    reg.Counter("service.sessions_completed"),
		rejected:     reg.Counter("service.sessions_rejected"),
		recovered:    reg.Counter("service.sessions_recovered"),
		evicted:      reg.Counter("service.sessions_evicted"),
		ingestErrs:   reg.Counter("service.ingest_errors"),
		crcErrs:      reg.Counter("service.chunk_crc_errors"),
		truncated:    reg.Counter("service.stream_truncated"),
		timeouts:     reg.Counter("service.ingest_timeouts"),
		ckpts:        reg.Counter("service.checkpoints"),
		ckptFailures: reg.Counter("service.checkpoint_failures"),
		ckptSkipped:  reg.Counter("service.checkpoint_corrupt_entries"),
		bytesIn:      reg.Counter("service.bytes_in"),
	}
}

// Server is the racemond service. Create with New, start with Serve or
// ListenAndServe, stop with Close.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	c     svcCells
	start time.Time

	mu        sync.Mutex
	sessions  map[string]*session
	attachedN int
	degraded  bool
	closed    bool
	ln        net.Listener
	conns     map[net.Conn]struct{}

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds a Server (not yet listening) and starts its idle-eviction
// janitor.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		c:        newSvcCells(reg),
		start:    time.Now(),
		sessions: make(map[string]*session),
		conns:    make(map[net.Conn]struct{}),
		quit:     make(chan struct{}),
	}
	s.wg.Add(1)
	go s.janitor()
	return s
}

// Obs returns the service-level metric registry (service.* cells).
// Per-session monitor registries are reachable via the stats handler.
func (s *Server) Obs() *obs.Registry { return s.reg }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address once Serve has been called (nil
// before).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts sessions on ln until Close. It returns nil after a
// clean Close, or the first accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("service: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return err
			}
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Close stops accepting, closes every live connection (attached
// sessions end abnormally: live state dropped, ring state kept — the
// same rule as a crash, so a restart recovers them), and waits for the
// handler goroutines to exit.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.quit)
		s.mu.Lock()
		s.closed = true
		if s.ln != nil {
			s.ln.Close()
		}
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
	return nil
}

// janitor evicts the in-memory bookkeeping of sessions that have been
// detached longer than IdleTimeout. Their checkpoint rings stay on
// disk, so a late resume still recovers; only the table entry (and its
// tiny footprint) is reclaimed — the point is that abandoned sessions
// cannot grow the table without bound.
func (s *Server) janitor() {
	defer s.wg.Done()
	period := s.cfg.IdleTimeout / 4
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			cutoff := time.Now().Add(-s.cfg.IdleTimeout)
			s.mu.Lock()
			for id, sess := range s.sessions {
				if !sess.attached && sess.lastSeen.Before(cutoff) {
					delete(s.sessions, id)
					s.c.evicted.Add(1)
				}
			}
			s.c.tracked.Set(int64(len(s.sessions)))
			s.mu.Unlock()
		}
	}
}

// admit reserves the session for this connection, or returns the
// shedding decision.
func (s *Server) admit(id string) (sess *session, retryAfter time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, s.cfg.RetryAfter, false
	}
	if s.degraded {
		// Checkpoint backpressure: persisting is failing, so taking on
		// new recovery obligations would silently weaken durability.
		return nil, s.cfg.RetryAfter, false
	}
	sess = s.sessions[id]
	if sess != nil && sess.attached {
		// One connection per session. After a network partition the old
		// connection may linger until its read deadline fires; the
		// client retries past it.
		return nil, s.cfg.ReadTimeout, false
	}
	if s.attachedN >= s.cfg.MaxSessions {
		return nil, s.cfg.RetryAfter, false
	}
	if sess == nil {
		sess = &session{id: id}
		s.sessions[id] = sess
	} else {
		sess.resumed++
	}
	sess.attached = true
	sess.completed = false
	s.attachedN++
	s.c.started.Add(1)
	s.c.attached.Set(int64(s.attachedN))
	s.c.tracked.Set(int64(len(s.sessions)))
	return sess, 0, true
}

// detach releases the session; completed sessions leave the table.
func (s *Server) detach(sess *session, events uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess.attached = false
	sess.reg = nil
	sess.events = events
	sess.lastSeen = time.Now()
	s.attachedN--
	if sess.completed {
		delete(s.sessions, sess.id)
	}
	s.c.attached.Set(int64(s.attachedN))
	s.c.tracked.Set(int64(len(s.sessions)))
}

// noteCheckpoint records a checkpoint outcome and drives the degraded
// flag: one failure sheds new admissions until a write succeeds again.
func (s *Server) noteCheckpoint(sess *session, err error) {
	if err != nil {
		s.c.ckptFailures.Add(1)
		s.logf("session %s: checkpoint failed: %v (shedding new sessions)", sess.id, err)
	} else {
		s.c.ckpts.Add(1)
	}
	s.mu.Lock()
	s.degraded = err != nil
	s.mu.Unlock()
	if err != nil {
		s.c.degraded.Set(1)
	} else {
		s.c.degraded.Set(0)
	}
}

// deadlineReader arms a fresh read deadline before every read — the
// slow-loris bound: each read, not just the first, must make progress
// within ReadTimeout.
type deadlineReader struct {
	conn    net.Conn
	timeout time.Duration
	bytes   *obs.Counter
}

func (d *deadlineReader) Read(p []byte) (int, error) {
	if d.timeout > 0 {
		d.conn.SetReadDeadline(time.Now().Add(d.timeout))
	}
	n, err := d.conn.Read(p)
	d.bytes.Add(uint64(n))
	return n, err
}

// handleConn runs one connection: handshake, admission, ingest.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(&deadlineReader{conn: conn, timeout: s.cfg.ReadTimeout, bytes: s.c.bytesIn}, 64<<10)
	line, err := readLine(br)
	if err != nil {
		return // nothing valid to answer
	}
	id, err := parseHandshake(line)
	if err != nil {
		fmt.Fprintf(conn, "err %v\n", err)
		return
	}
	sess, retryAfter, ok := s.admit(id)
	if !ok {
		s.c.rejected.Add(1)
		fmt.Fprintf(conn, "busy retry-after %d\n", retryAfter.Milliseconds())
		return
	}
	s.ingest(sess, conn, br)
}

// ingest runs the admitted session over this connection until clean
// completion or an abnormal end.
func (s *Server) ingest(sess *session, conn net.Conn, br *bufio.Reader) {
	var events uint64
	defer func() { s.detach(sess, events) }()

	// Recover durable state: newest decodable ring entry, falling back
	// past corrupt generations; an undecodable ring recovers to event 0
	// (sound — the client replays from byte 0).
	var ring *ckRing
	var snap *monitor.Snapshot
	if s.cfg.CheckpointDir != "" {
		ring = newRing(s.cfg.FS, filepath.Join(s.cfg.CheckpointDir, sess.id), s.cfg.CheckpointRing)
		var skipped int
		var err error
		snap, skipped, err = ring.recover()
		if skipped > 0 {
			s.c.ckptSkipped.Add(uint64(skipped))
		}
		if err != nil {
			s.logf("session %s: %v; restarting from event 0", sess.id, err)
			snap = nil
		}
	}

	// The snapshot's header is known before any trace bytes arrive, so
	// a recovered monitor is built now and its event count rides on the ok
	// reply (purely informative; resume positioning is server-side).
	cfg := monitor.PipelineConfig{Shards: s.cfg.Shards}
	var m *monitor.Monitor
	if snap != nil {
		m = snap.Open(cfg)
		events = m.Events()
		s.c.recovered.Add(1)
		s.logf("session %s: recovered at event %d", sess.id, events)
		s.mu.Lock()
		if sess.resumed == 0 {
			// The session's first admission by this process picked up
			// where an earlier process left it: a resume across a
			// restart. (admit counts every later re-attachment.)
			sess.resumed = 1
		}
		s.mu.Unlock()
	}
	if _, err := fmt.Fprintf(conn, "ok %d\n", events); err != nil {
		s.fail(sess, conn, m, err)
		return
	}

	// The trace decoder reads through the CRC chunk layer: damaged or
	// truncated bytes surface as errors HERE, never as events.
	cr := &chunkReader{br: br}
	tr, err := monitor.NewTraceReader(cr)
	if err != nil {
		s.fail(sess, conn, m, err)
		return
	}
	if snap != nil {
		if err := tr.ResumeAt(snap); err != nil {
			s.fail(sess, conn, m, err)
			return
		}
	} else {
		m = monitor.Open(tr.Header(), cfg)
	}
	s.mu.Lock()
	sess.reg = m.Obs()
	s.mu.Unlock()

	nextCk := uint64(0)
	if ring != nil && s.cfg.CheckpointEvery > 0 {
		nextCk = (events/s.cfg.CheckpointEvery + 1) * s.cfg.CheckpointEvery
	}
	for {
		batch, more, err := tr.NextBatch(nil)
		if err != nil {
			s.fail(sess, conn, m, err)
			return
		}
		if !more {
			break
		}
		m.StepBatch(batch)
		events = m.Events()
		if nextCk > 0 && events >= nextCk {
			err := ring.write(m.Snapshot)
			s.noteCheckpoint(sess, err)
			nextCk = (events/s.cfg.CheckpointEvery + 1) * s.cfg.CheckpointEvery
		}
	}

	// Clean END marker: finalize and answer. The ring is destroyed only
	// after the done line is on the wire — a crash in between re-runs
	// the tail, which is idempotent (same trace, same result).
	reports := m.Finish()
	st := m.RAStats()
	res := SessionResult{
		Session: sess.id, Events: m.Events(), RaceCount: len(reports),
		Races:  make([]RaceJSON, 0, len(reports)),
		RALive: st.Live, RAPeak: st.Peak, RACollected: st.Collected,
		Resumed: sess.resumed,
	}
	for _, r := range reports {
		res.Races = append(res.Races, r.JSON())
	}
	events = res.Events
	if _, err := fmt.Fprintf(conn, "done %s\n", res.JSON()); err != nil {
		// The client never saw the result; it will resume and re-run the
		// tail. State stays recoverable.
		s.fail(sess, nil, nil, err)
		return
	}
	if ring != nil {
		ring.destroy()
	}
	s.mu.Lock()
	sess.completed = true
	sess.races = len(reports)
	s.mu.Unlock()
	s.c.completed.Add(1)
	s.logf("session %s: completed (%d events, %d races, resumed %d times)", sess.id, res.Events, res.RaceCount, sess.resumed)
}

// fail ends a session abnormally: classify, count, tear down the monitor
// WITHOUT checkpointing (the live state past the last checkpoint is
// unproven), best-effort error reply.
func (s *Server) fail(sess *session, conn net.Conn, m *monitor.Monitor, err error) {
	s.c.ingestErrs.Add(1)
	switch {
	case errors.Is(err, ErrChunkCorrupt):
		s.c.crcErrs.Add(1)
	case errors.Is(err, ErrTruncated):
		s.c.truncated.Add(1)
	default:
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			s.c.timeouts.Add(1)
		}
	}
	if m != nil {
		m.Abort()
	}
	s.logf("session %s: ingest failed: %v", sess.id, err)
	if conn != nil {
		conn.SetWriteDeadline(time.Now().Add(time.Second))
		fmt.Fprintf(conn, "err %v\n", err)
	}
}
