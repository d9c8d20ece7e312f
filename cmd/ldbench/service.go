package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"localdrf/internal/faultinject"
	"localdrf/internal/monitor"
	"localdrf/internal/prog"
	"localdrf/internal/race"
	"localdrf/internal/service"
)

// serviceClients is the number of concurrent racemond clients: one per
// CPU of the 2-CPU host the baseline was measured on, kept fixed so the
// workload is the same on every host.
const serviceClients = 2

// serviceRig is an in-process racemond: a service.Server on a loopback
// listener whose checkpoint filesystem is wrapped for timing.
type serviceRig struct {
	srv    *service.Server
	addr   string
	served chan error
	fs     *ckptFS
}

func bootServer(ckptDir string) (*serviceRig, error) {
	fs := &ckptFS{FS: faultinject.OS(), traced: map[string]*unitTrace{}, open: map[string]int{}}
	srv := service.New(service.Config{CheckpointDir: ckptDir, CheckpointEvery: 100_000, FS: fs})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	r := &serviceRig{srv: srv, addr: ln.Addr().String(), served: make(chan error, 1), fs: fs}
	go func() { r.served <- srv.Serve(ln) }()
	return r, nil
}

// close stops the server and waits until Serve has returned.
func (r *serviceRig) close() {
	r.srv.Close()
	<-r.served
}

// session runs one racemond session: Client.Run from its start to the
// done result. The session is traced into log unless log is nil.
func (r *serviceRig) session(id string, trace []byte, log *spanLog) unitRec {
	start := time.Now()
	var st *sessionTrace
	if log != nil {
		st = &sessionTrace{ut: log.begin(start)}
		r.fs.track(id, st.ut)
		defer r.fs.untrack(id)
	}
	var retries int
	c := &service.Client{
		Addr: r.addr, Session: id,
		Source: func() (io.Reader, error) { return bytes.NewReader(trace), nil },
		WrapConn: func(attempt int, conn net.Conn) net.Conn {
			retries = attempt
			if st == nil {
				return conn
			}
			*st = sessionTrace{ut: st.ut} // a retry starts the layer marks over
			return &timedConn{Conn: conn, st: st}
		},
	}
	res, err := c.Run()
	end := time.Now()
	u := unitRec{dur: end.Sub(start), err: err}
	u.stats.retries = retries
	if st != nil {
		if err == nil {
			st.ut.childAt("service.handshake", start, st.replied)
			st.ut.childAt("service.upload", st.replied, st.wrote)
			st.ut.childAt("service.result_wait", st.wrote, st.read)
		}
		st.ut.end(end)
		u.stats.writeBlocked = st.writeBlocked
	}
	if err != nil {
		return u
	}
	reports := make([]race.Report, len(res.Races))
	for i, rc := range res.Races {
		reports[i] = race.Report{Loc: prog.Loc(rc.Loc), ThreadI: rc.ThreadI, ThreadJ: rc.ThreadJ,
			WriteI: rc.OpI == "write", WriteJ: rc.OpJ == "write"}
	}
	u.events = res.Events
	u.out = newOutcome(res.Events, reports,
		monitor.RAStats{Live: res.RALive, Peak: res.RAPeak, Collected: res.RACollected}, monitor.WindowStats{})
	u.out.Races = res.RaceCount
	u.stats.races = uint64(res.RaceCount)
	u.stats.raPeak = int64(res.RAPeak)
	u.stats.raCollected = res.RACollected
	res.Session = ""
	u.canonical = res.CanonicalJSON()
	return u
}

// serviceRound returns the round of the service job: serviceClients
// clients run perClient sessions each, every client sending its next
// session only after the previous one is done, each from its own trace
// offset. With a span log, every other round is traced.
func serviceRound(rig *serviceRig, traces [][]byte, perClient int, log *spanLog, tag string) func(r int) []unitRec {
	return func(r int) []unitRec {
		var rl *spanLog
		if r%2 == 0 {
			rl = log
		}
		per := make([][]unitRec, serviceClients)
		var wg sync.WaitGroup
		for c := range per {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < perClient; k++ {
					ti := (c + k) % len(traces)
					u := rig.session(fmt.Sprintf("%s-r%d-c%d-s%d", tag, r, c, k), traces[ti], rl)
					u.trace, u.traced = ti, rl != nil
					per[c] = append(per[c], u)
				}
			}()
		}
		wg.Wait()
		return slices.Concat(per...)
	}
}

// sessionTrace marks where one traced session's client-side layers end.
// Only the goroutine running the session touches it.
type sessionTrace struct {
	ut           *unitTrace
	replied      time.Time // handshake reply read
	wrote        time.Time // last trace chunk (the END marker) written
	read         time.Time // last read of the done line
	writeBlocked time.Duration
}

// timedConn times the client's side of one connection. Time inside
// Write is TCP backpressure from the server.
type timedConn struct {
	net.Conn
	st *sessionTrace
}

func (c *timedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	end := time.Now()
	c.st.writeBlocked += end.Sub(start)
	c.st.wrote = end
	return n, err
}

func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.st.replied.IsZero() {
		c.st.replied = time.Now()
	} else {
		c.st.read = time.Now()
	}
	return n, err
}

// ckptRec is one checkpoint a traced session wrote.
type ckptRec struct {
	write, fsync time.Duration
	bytes        int
}

// ckptFS wraps the server's checkpoint filesystem. For traced sessions,
// found by the session directory in the ring path, it records a
// ckpt.write span from Create to Sync (snapshot encode and write) and a
// ckpt.fsync span for File.Sync and for SyncDir.
type ckptFS struct {
	faultinject.FS
	mu     sync.Mutex
	traced map[string]*unitTrace
	open   map[string]int // session → index of its latest record in recs
	recs   []ckptRec
}

func (f *ckptFS) track(id string, ut *unitTrace) {
	f.mu.Lock()
	f.traced[id] = ut
	f.mu.Unlock()
}

func (f *ckptFS) untrack(id string) {
	f.mu.Lock()
	delete(f.traced, id)
	delete(f.open, id)
	f.mu.Unlock()
}

func (f *ckptFS) lookup(id string) *unitTrace {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.traced[id]
}

func (f *ckptFS) Create(path string) (faultinject.File, error) {
	id := filepath.Base(filepath.Dir(path))
	ut := f.lookup(id)
	start := time.Now()
	file, err := f.FS.Create(path)
	if err != nil || ut == nil {
		return file, err
	}
	return &ckptFile{File: file, fs: f, id: id, ut: ut, start: start}, nil
}

func (f *ckptFS) SyncDir(path string) error {
	id := filepath.Base(path)
	ut := f.lookup(id)
	start := time.Now()
	err := f.FS.SyncDir(path)
	if ut != nil {
		end := time.Now()
		ut.childAt("ckpt.fsync", start, end)
		f.mu.Lock()
		if i, ok := f.open[id]; ok {
			f.recs[i].fsync += end.Sub(start)
		}
		f.mu.Unlock()
	}
	return err
}

type ckptFile struct {
	faultinject.File
	fs    *ckptFS
	id    string
	ut    *unitTrace
	start time.Time
	bytes int
}

func (c *ckptFile) Write(p []byte) (int, error) {
	n, err := c.File.Write(p)
	c.bytes += n
	return n, err
}

func (c *ckptFile) Sync() error {
	start := time.Now()
	err := c.File.Sync()
	end := time.Now()
	c.ut.childAt("ckpt.write", c.start, start)
	c.ut.childAt("ckpt.fsync", start, end)
	c.fs.mu.Lock()
	c.fs.open[c.id] = len(c.fs.recs)
	c.fs.recs = append(c.fs.recs, ckptRec{write: start.Sub(c.start), fsync: end.Sub(start), bytes: c.bytes})
	c.fs.mu.Unlock()
	return err
}
