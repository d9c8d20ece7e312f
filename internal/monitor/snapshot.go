package monitor

// Checkpoint/resume: the snapshot codec that serialises the COMPLETE
// live state of a monitor — thread and release clocks, epoch-or-vector
// per-location last-access state, dedup bitmasks, live RA messages, GC
// frontier and interval, halt set — so monitoring can stop at any
// event index and resume later (possibly in another process, or
// under a different shard/GC configuration) with reports and RAStats
// byte-identical to a run that never stopped. The format doubles as a
// direct measurement of the paper's boundedness claim: the encoded size
// IS the live state, O(locations + threads² + live RA messages), so a
// snapshot of a windowed monitor stays flat over a million-event stream
// while an unbounded control grows without limit (tested).
//
// # Format
//
// A snapshot is the magic "LDCK", the version byte 5, and one flat
// stream of fields — no framing, no lengths — in this order:
//
//	header   uvarint threads, uvarint nlocs,
//	         nlocs × (uvarint len, name bytes, kind byte) — the binary
//	         wire header's bytes after magic and version, written by
//	         appendHeader and read by readHeader, same limits
//	sync     uvarint events, gcEvery, nextGC, raPeak, raCollected;
//	         halted bitset ⌈threads/8⌉ bytes
//	clocks   threads × threads uvarints (row t = thread t's clock),
//	         then threads uvarints (cached minimum frontier)
//	atomic   per ATOMIC location in declaration order:
//	         threads uvarints (the released clock L_A)
//	ra       per RELEASE-ACQUIRE location in declaration order:
//	         uvarint count, then count messages sorted by timestamp
//	         (varint num, uvarint den, uvarint writer,
//	         threads uvarints — the published clock)
//	na       per NONATOMIC location in declaration order:
//	         flags byte (bit0 reported; no other bit is defined),
//	         then the write side and the read side, each varint t
//	         (a thread, or the noEpoch or escalated sentinel) and
//	         then either uvarint c (the epoch t@c) or, escalated,
//	         the per-thread vector (threads uvarints); if bit0,
//	         the threads² dedup mask bytes follow (the dedup set's
//	         saturation rows are derived from them on decode)
//	predict  predicate byte; under PredShort only: uvarint window k,
//	         then per NONATOMIC location in declaration order: uvarint
//	         entry count, entries (uvarint gidx — nondecreasing,
//	         uvarint epoch, uvarint thread, write byte), mask byte (1 =
//	         threads² window dedup masks follow); then uvarint window
//	         peak, uvarint pruned
//	end      the byte snapEnd
//
// Every count the stream declares is bounded by the header or by the
// bytes that follow it: the decoder allocates by the validated header
// (clocks, masks) and grows RA stores and windows only with items
// actually decoded, so a hostile count runs out of input, not memory.
// A static pre-filter is configuration and is not recorded: a filtered
// run's snapshot resumes unfiltered with the same reports (see
// staticfilter.go).
//
// The encoding is canonical: equal monitor states produce byte-identical
// snapshots (RA messages are sorted, vectors are emitted only when
// escalated, masks only when a race was recorded), so a snapshot taken
// after a restore is byte-identical to one taken by an unsplit run at
// the same event index — and a sharded monitor's snapshot is
// byte-identical to a sequential one's at the same position and GC
// configuration, which is what makes cross-mode resume (checkpoint
// sequential, resume sharded, or vice versa) sound.
//
// A snapshot is the monitor's state at event N and nothing else: it
// holds no trace position, so it resumes over any encoding of the same
// event stream by skipping N events (TraceReader.ResumeAt).
//
// The decoder VALIDATES every field — header limits, clock-vector
// lengths, epoch sentinels, thread/location bounds, mask bits (none
// pairing a thread with itself), the GC schedule (events < nextGC ≤
// events + gcEvery), the retention peaks against the live counts, the
// window's FIFO order and the end byte —
// and returns errors naming the part and field on malformed input,
// never panics, and never builds a monitor that a subsequent Step could
// crash.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"localdrf/internal/prog"
)

const (
	snapMagic = "LDCK"
	// snapVersion is the one version written and decoded; the decoder
	// rejects any other.
	snapVersion = 5
	// snapEnd closes the stream, so a snapshot cut after its last
	// field still fails to decode.
	snapEnd = 'E'
	// naReported is the one bit of a nonatomic location's flags byte:
	// its dedup masks follow.
	naReported byte = 1
)

// Snapshot is a decoded checkpoint: the restored monitor. Resume it
// with TraceReader.ResumeAt and Open, in that order: Open hands the
// restored state over once.
type Snapshot struct {
	hdr Header
	m   *Monitor
	// events is the restored monitor's event count, kept for
	// TraceReader.ResumeAt after the monitor has been handed over.
	events uint64
}

// take hands the restored monitor over, once (Open's single use).
func (s *Snapshot) take() *Monitor {
	if s.m == nil {
		panic("monitor: snapshot already consumed (Open may be called once)")
	}
	m := s.m
	s.m = nil
	return m
}

// ---- Encoder ----

// snapWriter encodes fields straight into the buffered writer; a write
// error is sticky in bufio and surfaces at Flush.
type snapWriter struct{ w *bufio.Writer }

func (sw snapWriter) uvarint(v uint64) { sw.w.Write(binary.AppendUvarint(sw.w.AvailableBuffer(), v)) }
func (sw snapWriter) varint(v int64)   { sw.w.Write(binary.AppendVarint(sw.w.AvailableBuffer(), v)) }
func (sw snapWriter) byte(b byte)      { sw.w.WriteByte(b) }
func (sw snapWriter) clock(vc []uint64) {
	for _, v := range vc {
		sw.uvarint(v)
	}
}

// bitset writes ⌈n/8⌉ bytes, bit i = bs[i] (nil encodes as all zeros
// over n bits).
func (sw snapWriter) bitset(bs []bool, n int) {
	for i := 0; i < n; i += 8 {
		var b byte
		for j := 0; j < 8 && i+j < n; j++ {
			if bs != nil && bs[i+j] {
				b |= 1 << j
			}
		}
		sw.byte(b)
	}
}

// Snapshot serialises the monitor's complete live state to w. The
// monitor remains usable; opening the written bytes (ReadSnapshot, then
// Snapshot.Open) continues the stream with reports and RAStats
// byte-identical to this monitor's. A sharded monitor quiesces its
// back-ends first and reassembles their per-location state in
// declaration order, so its snapshot is byte-identical to a sequential
// monitor's at the same stream position and GC configuration — it can
// be resumed sequentially, at another shard count, or not at all. Must
// be called from the feeding goroutine (between Steps); it fails on a
// sharded monitor that was finished or aborted. Each location's race
// state is read through naAt, from whichever checker owns it.
func (m *Monitor) Snapshot(w io.Writer) error {
	if p := m.p; p != nil {
		if p.aborted.Load() {
			return fmt.Errorf("monitor: snapshot: the back-ends were aborted")
		}
		if p.done {
			return fmt.Errorf("monitor: snapshot: the monitor is finished")
		}
		p.quiesce()
	}
	hdr := Header{Threads: m.nthreads, Decls: m.decls}
	if err := CheckHeader(hdr); err != nil {
		return fmt.Errorf("monitor: snapshot: %w", err)
	}
	start := time.Now()
	cw := &countingWriter{w: w}
	sw := snapWriter{w: bufio.NewWriter(cw)}
	sw.w.WriteString(snapMagic)
	sw.byte(snapVersion)
	sw.w.Write(appendHeader(nil, hdr))

	// sync
	sw.uvarint(m.events)
	sw.uvarint(m.gcEvery)
	sw.uvarint(m.nextGC)
	sw.uvarint(uint64(m.raPeak))
	sw.uvarint(m.raCollected)
	sw.bitset(m.halted, m.nthreads)

	// clocks
	for _, c := range m.clocks {
		sw.clock(c)
	}
	sw.clock(m.minClock)

	// atomic released clocks
	for l, d := range m.decls {
		if d.Kind == prog.Atomic {
			sw.clock(m.at[l])
		}
	}

	// live RA messages, sorted per location for canonical bytes
	var slots []int32
	for l, d := range m.decls {
		if d.Kind != prog.ReleaseAcquire {
			continue
		}
		st := &m.ra[l]
		slots = st.sortedSlots(slots[:0])
		sw.uvarint(uint64(len(slots)))
		for _, i := range slots {
			e := st.live[i]
			sw.varint(e.key.num)
			sw.uvarint(uint64(e.key.den))
			sw.uvarint(uint64(e.writer))
			sw.clock(st.clock(int(i)))
		}
	}

	// nonatomic last-access state
	for l, d := range m.decls {
		if d.Kind != prog.NonAtomic {
			continue
		}
		ls := m.naAt(int32(l))
		var flags byte
		if ls.reported.mask != nil {
			flags |= naReported
		}
		sw.byte(flags)
		for _, sd := range ls.sides() {
			sw.varint(int64(sd.t))
			if sd.t == escalated {
				sw.clock(sd.v)
			} else {
				sw.uvarint(sd.c)
			}
		}
		if ls.reported.mask != nil {
			sw.w.Write(ls.reported.mask)
		}
	}

	// predict: the predicate, and under PredShort its window
	sw.byte(byte(m.pred))
	if m.win != nil {
		sw.uvarint(m.windowK)
		for l, d := range m.decls {
			if d.Kind != prog.NonAtomic {
				continue
			}
			wl := &m.win.locs[l]
			live := wl.entries[wl.head:]
			sw.uvarint(uint64(len(live)))
			for _, e := range live {
				sw.uvarint(e.gidx)
				sw.uvarint(e.epoch)
				sw.uvarint(uint64(e.t))
				wb := byte(0)
				if e.write {
					wb = 1
				}
				sw.byte(wb)
			}
			if wl.reported.mask != nil {
				sw.byte(1)
				sw.w.Write(wl.reported.mask)
			} else {
				sw.byte(0)
			}
		}
		sw.uvarint(uint64(m.win.peak))
		sw.uvarint(m.win.pruned)
	}

	sw.byte(snapEnd)
	if err := sw.w.Flush(); err != nil {
		return err
	}
	// Checkpoint telemetry: the encoded size IS the live state, so the
	// size histogram doubles as a boundedness measurement over time.
	m.mo.snapEncBytes.Observe(cw.n)
	m.mo.snapEncNs.Observe(uint64(time.Since(start)))
	return nil
}

// countingWriter meters the encoder's bytes for the
// monitor.snapshot.encode_bytes histogram.
type countingWriter struct {
	w io.Writer
	n uint64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += uint64(n)
	return n, err
}

// ---- Decoder ----

// snapReader decodes the stream field by field. n counts the bytes it
// has consumed — not what bufio has read ahead of them — and part names
// the part being decoded, so every error names the part and the field.
type snapReader struct {
	br   *bufio.Reader
	n    uint64
	part string
}

func (c *snapReader) errf(format string, args ...any) error {
	return fmt.Errorf("monitor: snapshot %s: %s", c.part, fmt.Sprintf(format, args...))
}

// fail reports a read error on a field; running out of input anywhere
// is a truncated snapshot.
func (c *snapReader) fail(field string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("monitor: snapshot %s: %s: %w", c.part, field, err)
}

// ReadByte and Read count what they consume, and make the reader a
// headerReader, so the header decodes through readHeader.
func (c *snapReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

func (c *snapReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.n += uint64(n)
	return n, err
}

func (c *snapReader) uvarint(field string) (uint64, error) {
	v, err := binary.ReadUvarint(c)
	if err != nil {
		return 0, c.fail(field, err)
	}
	return v, nil
}

func (c *snapReader) varint(field string) (int64, error) {
	v, err := binary.ReadVarint(c)
	if err != nil {
		return 0, c.fail(field, err)
	}
	return v, nil
}

func (c *snapReader) byte(field string) (byte, error) {
	b, err := c.ReadByte()
	if err != nil {
		return 0, c.fail(field, err)
	}
	return b, nil
}

// flag reads a byte that must be 0 or 1.
func (c *snapReader) flag(field string) (bool, error) {
	b, err := c.byte(field)
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, c.errf("%s %d not 0 or 1", field, b)
	}
	return b == 1, nil
}

// take reads n bytes, n fixed by the validated header.
func (c *snapReader) take(n int, field string) ([]byte, error) {
	b := make([]byte, n)
	if _, err := io.ReadFull(c, b); err != nil {
		return nil, c.fail(field, err)
	}
	return b, nil
}

// clock decodes exactly len(dst) uvarints into dst.
func (c *snapReader) clock(dst []uint64, field string) error {
	for i := range dst {
		v, err := c.uvarint(field)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// bitset decodes ⌈n/8⌉ bytes into n flags; nil when none is set.
func (c *snapReader) bitset(n int, field string) ([]bool, error) {
	raw, err := c.take((n+7)/8, field)
	if err != nil {
		return nil, err
	}
	bs := make([]bool, n)
	any := false
	for i := range bs {
		if raw[i/8]&(1<<(i%8)) != 0 {
			bs[i] = true
			any = true
		}
	}
	// Bits beyond n must be zero (canonical encoding).
	for i := n; i < len(raw)*8; i++ {
		if raw[i/8]&(1<<(i%8)) != 0 {
			return nil, c.errf("%s bitset has bits beyond %d entries", field, n)
		}
	}
	if !any {
		return nil, nil
	}
	return bs, nil
}

// pairSet decodes a dedup set over n threads: n² mask bytes, each a
// subset of the four access-kind pair bits, and none pairing a thread
// with itself. The derived saturation rows are rebuilt from the masks.
func (c *snapReader) pairSet(n int, field string) (pairSet, error) {
	raw, err := c.take(n*n, field)
	if err != nil {
		return pairSet{}, err
	}
	for i, b := range raw {
		if b > 15 {
			return pairSet{}, c.errf("%s byte %#x has unknown bits", field, b)
		}
		if b != 0 && i/n == i%n {
			return pairSet{}, c.errf("%s pair thread %d with itself", field, i%n)
		}
	}
	return pairSetOf(n, raw), nil
}

// epochThread validates an epoch thread field: the two sentinels or a
// real thread index.
func (c *snapReader) epochThread(field string, nthreads int) (int32, error) {
	v, err := c.varint(field)
	if err != nil {
		return 0, err
	}
	if v != int64(noEpoch) && v != int64(escalated) && (v < 0 || v >= int64(nthreads)) {
		return 0, c.errf("%s %d out of range", field, v)
	}
	return int32(v), nil
}

// ReadSnapshot decodes and validates a snapshot written by
// Monitor.Snapshot. Malformed input produces an error, never a panic,
// and never a monitor that a subsequent Step could crash.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	start := time.Now()
	c := &snapReader{br: bufio.NewReader(r), part: "header"}
	var magic [len(snapMagic) + 1]byte
	if _, err := io.ReadFull(c, magic[:]); err != nil {
		return nil, c.fail("magic", err)
	}
	if string(magic[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("monitor: not a snapshot (bad magic %q)", magic[:len(snapMagic)])
	}
	if ver := magic[len(snapMagic)]; ver != snapVersion {
		return nil, fmt.Errorf("monitor: snapshot: unsupported version %d (have %d)", ver, snapVersion)
	}
	hdr, err := readHeader(c)
	if err != nil {
		return nil, c.errf("%v", err)
	}
	if err := CheckHeader(hdr); err != nil {
		return nil, err
	}
	m := New(hdr.Threads, hdr.Decls)
	for _, part := range []struct {
		name   string
		decode func(*Monitor) error
	}{
		{"sync", c.decodeSync},
		{"clocks", c.decodeClocks},
		{"atomic", c.decodeAtomics},
		{"ra", c.decodeRA},
		{"na", c.decodeNA},
		{"predict", c.decodePredict},
	} {
		c.part = part.name
		if err := part.decode(m); err != nil {
			return nil, err
		}
	}
	c.part = "end"
	end, err := c.byte("end byte")
	if err != nil {
		return nil, err
	}
	if end != snapEnd {
		return nil, c.errf("end byte %#x, want %#x", end, snapEnd)
	}
	// Record the restore cost in the restored monitor's own registry.
	m.mo.snapDecBytes.Observe(c.n)
	m.mo.snapDecNs.Observe(uint64(time.Since(start)))
	return &Snapshot{hdr: hdr, m: m, events: m.events}, nil
}

func (c *snapReader) decodeSync(m *Monitor) error {
	var err error
	if m.events, err = c.uvarint("events"); err != nil {
		return err
	}
	if m.gcEvery, err = c.uvarint("gcEvery"); err != nil {
		return err
	}
	if m.gcEvery == 0 {
		return c.errf("gcEvery must be ≥ 1")
	}
	if m.nextGC, err = c.uvarint("nextGC"); err != nil {
		return err
	}
	// The next sweep lies within one interval ahead, as New, gc and
	// SetGCInterval keep it; a sweep never due would retain RA messages
	// without bound.
	if m.nextGC <= m.events || m.nextGC-m.events > m.gcEvery {
		return c.errf("nextGC %d outside (%d, %d + gcEvery %d]", m.nextGC, m.events, m.events, m.gcEvery)
	}
	peak, err := c.uvarint("raPeak")
	if err != nil {
		return err
	}
	if peak > uint64(math.MaxInt) {
		return c.errf("raPeak %d out of range", peak)
	}
	m.raPeak = int(peak)
	if m.raCollected, err = c.uvarint("raCollected"); err != nil {
		return err
	}
	halted, err := c.bitset(m.nthreads, "halted")
	if err != nil {
		return err
	}
	if halted != nil {
		copy(m.halted, halted)
	}
	return nil
}

func (c *snapReader) decodeClocks(m *Monitor) error {
	for _, row := range m.clocks {
		if err := c.clock(row, "thread clock"); err != nil {
			return err
		}
	}
	return c.clock(m.minClock, "minimum frontier")
}

func (c *snapReader) decodeAtomics(m *Monitor) error {
	for l, decl := range m.decls {
		if decl.Kind != prog.Atomic {
			continue
		}
		if err := c.clock(m.at[l], "released clock"); err != nil {
			return err
		}
	}
	return nil
}

func (c *snapReader) decodeRA(m *Monitor) error {
	vc := make([]uint64, m.nthreads) // decode buffer; put copies it
	for l, decl := range m.decls {
		if decl.Kind != prog.ReleaseAcquire {
			continue
		}
		count, err := c.uvarint("message count")
		if err != nil {
			return err
		}
		// No allocation is driven by the count itself: the store below
		// grows only with messages actually decoded, and a hostile count
		// runs out of input (an error) rather than memory.
		st := &m.ra[l]
		for i := uint64(0); i < count; i++ {
			num, err := c.varint("message numerator")
			if err != nil {
				return err
			}
			den, err := c.uvarint("message denominator")
			if err != nil {
				return err
			}
			if den == 0 || den > uint64(math.MaxInt64) {
				return c.errf("message denominator %d out of range", den)
			}
			writer, err := c.uvarint("message writer")
			if err != nil {
				return err
			}
			if writer >= uint64(m.nthreads) {
				return c.errf("message writer %d out of range [0,%d)", writer, m.nthreads)
			}
			if err := c.clock(vc, "message clock"); err != nil {
				return err
			}
			if !st.put(tsKey{num: num, den: int64(den)}, int32(writer), vc) {
				return c.errf("duplicate message timestamp %d/%d", num, den)
			}
		}
		m.raLive += len(st.live)
	}
	if m.raPeak < m.raLive {
		return c.errf("raPeak %d below live message count %d", m.raPeak, m.raLive)
	}
	return nil
}

func (c *snapReader) decodeNA(m *Monitor) error {
	races := 0
	for l, decl := range m.decls {
		if decl.Kind != prog.NonAtomic {
			continue
		}
		ls := &m.ck.na[l]
		flags, err := c.byte("flags")
		if err != nil {
			return err
		}
		if flags&^naReported != 0 {
			return c.errf("unknown flag bits %#x", flags)
		}
		for i, sd := range ls.sides() {
			side := [...]string{"write", "read"}[i]
			if sd.t, err = c.epochThread(side+" epoch thread", m.nthreads); err != nil {
				return err
			}
			if sd.t != escalated {
				if sd.c, err = c.uvarint(side + " epoch clock"); err != nil {
					return err
				}
				continue
			}
			sd.v = make([]uint64, m.nthreads)
			if err := c.clock(sd.v, side+" vector"); err != nil {
				return err
			}
			m.ck.escalatedSides++
		}
		if flags&naReported != 0 {
			if ls.reported, err = c.pairSet(m.nthreads, "dedup masks"); err != nil {
				return err
			}
			races += ls.reported.races()
		}
	}
	m.ck.races = races
	return nil
}

// decodePredict restores the predicate and, under PredShort, the window
// bound and the per-location candidate windows.
func (c *snapReader) decodePredict(m *Monitor) error {
	predB, err := c.byte("predicate")
	if err != nil {
		return err
	}
	if predB > byte(PredShort) {
		return c.errf("unknown predicate %d", predB)
	}
	m.pred = Predicate(predB)
	if m.pred != PredHB {
		m.ensurePredCells()
	}
	if m.pred != PredShort {
		return nil
	}
	if m.windowK, err = c.uvarint("window k"); err != nil {
		return err
	}
	if m.windowK == 0 {
		return c.errf("window k 0 under predicate %s", m.pred)
	}
	w := newWindow(m.nthreads, len(m.decls), m.windowK)
	m.win = w
	races := 0
	for l, decl := range m.decls {
		if decl.Kind != prog.NonAtomic {
			continue
		}
		count, err := c.uvarint("window entry count")
		if err != nil {
			return err
		}
		wl := &w.locs[l]
		var prevGidx uint64
		for i := uint64(0); i < count; i++ {
			gidx, err := c.uvarint("entry index")
			if err != nil {
				return err
			}
			if gidx < prevGidx {
				return c.errf("entry index %d out of FIFO order (previous %d)", gidx, prevGidx)
			}
			if gidx > m.events {
				return c.errf("entry index %d beyond event count %d", gidx, m.events)
			}
			prevGidx = gidx
			epoch, err := c.uvarint("entry epoch")
			if err != nil {
				return err
			}
			thread, err := c.uvarint("entry thread")
			if err != nil {
				return err
			}
			if thread >= uint64(m.nthreads) {
				return c.errf("entry thread %d out of range [0,%d)", thread, m.nthreads)
			}
			write, err := c.flag("entry write flag")
			if err != nil {
				return err
			}
			wl.entries = append(wl.entries, winEntry{gidx: gidx, epoch: epoch, t: int32(thread), write: write})
		}
		w.live += len(wl.entries)
		masked, err := c.flag("mask flag")
		if err != nil {
			return err
		}
		if masked {
			if wl.reported, err = c.pairSet(m.nthreads, "window dedup masks"); err != nil {
				return err
			}
			races += wl.reported.races()
		}
	}
	w.races = races
	peak, err := c.uvarint("window peak")
	if err != nil {
		return err
	}
	if peak > uint64(math.MaxInt) {
		return c.errf("window peak %d out of range", peak)
	}
	if int(peak) < w.live {
		return c.errf("window peak %d below live count %d", peak, w.live)
	}
	w.peak = int(peak)
	if w.pruned, err = c.uvarint("window pruned"); err != nil {
		return err
	}
	return nil
}
