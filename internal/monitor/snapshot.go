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
// A snapshot is the magic "LDCK", the version byte 3, and a sequence of
// framed sections, each
//
//	tag byte, uvarint payloadLen, payload
//
// in this order (tags in parentheses):
//
//	header (1)  uvarint threads, uvarint nlocs,
//	            nlocs × (uvarint len, name bytes, kind byte) — the binary
//	            wire header's bytes after magic and version, written by
//	            appendHeader and read by readHeader, same limits
//	sync   (2)  uvarint events, gcEvery, nextGC, raPeak, raCollected;
//	            halted bitset ⌈threads/8⌉ bytes
//	clocks (3)  threads × threads uvarints (row t = thread t's clock),
//	            then threads uvarints (cached minimum frontier)
//	atomic (4)  per ATOMIC location in declaration order:
//	            threads uvarints (the released clock L_A)
//	ra     (5)  per RELEASE-ACQUIRE location in declaration order:
//	            uvarint count, then count messages sorted by timestamp
//	            (varint num, uvarint den, uvarint writer,
//	            threads uvarints — the published clock)
//	na     (6)  per NONATOMIC location in declaration order:
//	            flags byte (bit0 wClean, bit1 rClean, bit2 reported),
//	            varint wT, uvarint wC, varint rT, uvarint rC,
//	            varint lastT; if wT/rT is the escalated sentinel the
//	            per-thread vector follows (threads uvarints); if bit2,
//	            the threads² dedup mask bytes follow
//	predict(8)  OPTIONAL, present iff the predicate is not the
//	            default or a static pre-filter was active: predicate
//	            byte, uvarint window k, flags byte (bit0 = a static
//	            pre-filter was active — the mask itself is config and
//	            not serialised, but a resume without one can then warn);
//	            under PredShort, per NONATOMIC location in declaration
//	            order: uvarint entry count, entries (uvarint gidx —
//	            nondecreasing, uvarint epoch, uvarint thread, write
//	            byte), mask byte (1 = threads² window dedup masks
//	            follow); then uvarint window peak, uvarint pruned
//	end    (0)  empty payload, terminates the snapshot
//
// The atomic, ra and na sections are CHUNKED: the encoder flushes the
// current section at an item boundary (a location's released clock, one
// RA message, one location's NA state) once it exceeds ~1 MiB, emitting
// several consecutive sections with the same tag; the decoder fetches
// the next same-tag section whenever its cursor runs out with items
// still owed. Chunk boundaries are a deterministic function of the
// content, so the encoding stays canonical, and no single section can
// approach the decoder's hard payload limit regardless of how many RA
// messages an unbounded-GC monitor retains or how many locations have
// raced — whatever Snapshot writes, ReadSnapshot accepts.
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
// The decoder VALIDATES everything — section order and framing, header
// limits, clock-vector lengths, epoch sentinels, thread/location bounds,
// mask bits, the GC schedule (events < nextGC ≤ events + gcEvery) and
// the retention peaks against the live counts — and returns errors on
// malformed input, never panics, and never builds a monitor that a
// subsequent Step could crash.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"localdrf/internal/prog"
)

const (
	snapMagic = "LDCK"
	// snapVersion is the one version written and decoded; the decoder
	// rejects any other.
	snapVersion = 3

	snapTagEnd     = 0
	snapTagHeader  = 1
	snapTagSync    = 2
	snapTagClocks  = 3
	snapTagAtomic  = 4
	snapTagRA      = 5
	snapTagNA      = 6
	snapTagPredict = 8 // tag 7 held version 2's trace-reader section

	// maxSnapSection bounds one section's payload so a hostile length
	// prefix cannot demand an arbitrary allocation. snapChunk is where
	// the encoder cuts the repeatable sections; since it only cuts at
	// item boundaries, a section never exceeds snapChunk plus one item
	// (at most a threads² dedup mask, ≤ 1 MiB at the thread limit) —
	// far below the decoder's hard cap, so every encodable state is
	// decodable.
	maxSnapSection = 1 << 26
	snapChunk      = 1 << 20
)

// Snapshot is a decoded checkpoint: the restored monitor. Resume it
// with TraceReader.ResumeAt and Open, in that order: Open hands the
// restored state over once.
type Snapshot struct {
	hdr      Header
	m        *Monitor
	filtered bool
	// events is the restored monitor's event count, kept for
	// TraceReader.ResumeAt after the monitor has been handed over.
	events uint64
}

// StaticFiltered reports whether the checkpointed run had a static
// pre-filter installed. The mask itself is configuration and is not
// serialised, so a resume that does not reinstall one runs unfiltered —
// callers (racemon) use this flag to warn about the mismatch instead of
// silently dropping the filter.
func (s *Snapshot) StaticFiltered() bool { return s.filtered }

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

// snapWriter frames sections: each is built into the scratch buffer and
// emitted as tag + length + payload.
type snapWriter struct {
	w   *bufio.Writer
	buf []byte
}

func (sw *snapWriter) uvarint(v uint64) { sw.buf = appendUvarint(sw.buf, v) }
func (sw *snapWriter) varint(v int64)   { sw.buf = appendVarint(sw.buf, v) }
func (sw *snapWriter) bytes(p []byte)   { sw.buf = append(sw.buf, p...) }
func (sw *snapWriter) byte(b byte)      { sw.buf = append(sw.buf, b) }
func (sw *snapWriter) clock(vc []uint64) {
	for _, v := range vc {
		sw.uvarint(v)
	}
}

// bitset appends ⌈len(bs)/8⌉ bytes, bit i = bs[i] (nil encodes as all
// zeros over n bits).
func (sw *snapWriter) bitset(bs []bool, n int) {
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

func (sw *snapWriter) section(tag byte) {
	sw.w.WriteByte(tag)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(sw.buf)))
	sw.w.Write(tmp[:n])
	sw.w.Write(sw.buf)
	sw.buf = sw.buf[:0]
}

// chunk flushes the buffer as one section of the (repeatable) tag once
// it exceeds the chunk size — called at item boundaries only, so items
// never straddle sections.
func (sw *snapWriter) chunk(tag byte) {
	if len(sw.buf) >= snapChunk {
		sw.section(tag)
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
	filtered := m.staticSkip != nil
	hdr := Header{Threads: m.nthreads, Decls: m.decls}
	if err := validateHeader(hdr); err != nil {
		return fmt.Errorf("monitor: snapshot: %w", err)
	}
	start := time.Now()
	cw := &countingWriter{w: w}
	sw := &snapWriter{w: bufio.NewWriter(cw)}
	sw.w.WriteString(snapMagic)
	sw.w.WriteByte(snapVersion)

	sw.buf = appendHeader(sw.buf, hdr)
	sw.section(snapTagHeader)

	// sync
	sw.uvarint(m.events)
	sw.uvarint(m.gcEvery)
	sw.uvarint(m.nextGC)
	sw.uvarint(uint64(m.raPeak))
	sw.uvarint(m.raCollected)
	sw.bitset(m.halted, m.nthreads)
	sw.section(snapTagSync)

	// clocks
	for _, c := range m.clocks {
		sw.clock(c)
	}
	sw.clock(m.minClock)
	sw.section(snapTagClocks)

	// atomic released clocks
	for l, d := range m.decls {
		if d.Kind == prog.Atomic {
			sw.chunk(snapTagAtomic)
			sw.clock(m.at[l])
		}
	}
	sw.section(snapTagAtomic)

	// live RA messages, sorted per location for canonical bytes
	var slots []int32
	for l, d := range m.decls {
		if d.Kind != prog.ReleaseAcquire {
			continue
		}
		st := &m.ra[l]
		slots = st.sortedSlots(slots[:0])
		sw.chunk(snapTagRA)
		sw.uvarint(uint64(len(slots)))
		for _, i := range slots {
			sw.chunk(snapTagRA)
			e := st.live[i]
			sw.varint(e.key.num)
			sw.uvarint(uint64(e.key.den))
			sw.uvarint(uint64(e.writer))
			sw.clock(st.clock(int(i)))
		}
	}
	sw.section(snapTagRA)

	// nonatomic last-access state
	for l, d := range m.decls {
		if d.Kind != prog.NonAtomic {
			continue
		}
		sw.chunk(snapTagNA)
		ls := m.naAt(int32(l))
		var flags byte
		if ls.wClean {
			flags |= 1
		}
		if ls.rClean {
			flags |= 2
		}
		if ls.reported != nil {
			flags |= 4
		}
		sw.byte(flags)
		sw.varint(int64(ls.wT))
		sw.uvarint(ls.wC)
		sw.varint(int64(ls.rT))
		sw.uvarint(ls.rC)
		sw.varint(int64(ls.lastT))
		if ls.wT == escalated {
			sw.clock(ls.writes)
		}
		if ls.rT == escalated {
			sw.clock(ls.reads)
		}
		if ls.reported != nil {
			sw.bytes(ls.reported)
		}
	}
	sw.section(snapTagNA)

	// predict: emitted only when there is something non-default to
	// record, so default-predicate unfiltered snapshots stay bytewise
	// minimal.
	if m.pred != PredHB || filtered {
		sw.byte(byte(m.pred))
		sw.uvarint(m.windowK)
		var pf byte
		if filtered {
			pf = 1
		}
		sw.byte(pf)
		if m.win != nil {
			for l, d := range m.decls {
				if d.Kind != prog.NonAtomic {
					continue
				}
				sw.chunk(snapTagPredict)
				wl := &m.win.locs[l]
				live := wl.entries[wl.head:]
				sw.uvarint(uint64(len(live)))
				for _, e := range live {
					sw.chunk(snapTagPredict)
					sw.uvarint(e.gidx)
					sw.uvarint(e.epoch)
					sw.uvarint(uint64(e.t))
					wb := byte(0)
					if e.write {
						wb = 1
					}
					sw.byte(wb)
				}
				if wl.reported != nil {
					sw.byte(1)
					sw.bytes(wl.reported)
				} else {
					sw.byte(0)
				}
			}
			sw.uvarint(uint64(m.win.peak))
			sw.uvarint(m.win.pruned)
		}
		sw.section(snapTagPredict)
	}

	sw.section(snapTagEnd)
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

// snapCursor decodes one section payload with bounds checking; every
// read error names the section.
type snapCursor struct {
	p    []byte
	pos  int
	what string
}

func (c *snapCursor) errf(format string, args ...any) error {
	return fmt.Errorf("monitor: snapshot %s section: %s", c.what, fmt.Sprintf(format, args...))
}

func (c *snapCursor) uvarint(field string) (uint64, error) {
	v, n := binary.Uvarint(c.p[c.pos:])
	if n <= 0 {
		return 0, c.errf("bad %s uvarint", field)
	}
	c.pos += n
	return v, nil
}

func (c *snapCursor) varint(field string) (int64, error) {
	v, n := binary.Varint(c.p[c.pos:])
	if n <= 0 {
		return 0, c.errf("bad %s varint", field)
	}
	c.pos += n
	return v, nil
}

func (c *snapCursor) byte(field string) (byte, error) {
	if c.pos >= len(c.p) {
		return 0, c.errf("truncated %s", field)
	}
	b := c.p[c.pos]
	c.pos++
	return b, nil
}

func (c *snapCursor) take(n int, field string) ([]byte, error) {
	if n < 0 || c.pos+n > len(c.p) {
		return nil, c.errf("truncated %s", field)
	}
	b := c.p[c.pos : c.pos+n]
	c.pos += n
	return b, nil
}

// clock decodes exactly len(dst) uvarints into dst — any shortfall is a
// clock-count mismatch error.
func (c *snapCursor) clock(dst []uint64, field string) error {
	for i := range dst {
		v, err := c.uvarint(field)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

func (c *snapCursor) bitset(n int, field string) ([]bool, error) {
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
// subset of the four access-kind pair bits.
func (c *snapCursor) pairSet(n int, field string) (pairSet, error) {
	raw, err := c.take(n*n, field)
	if err != nil {
		return nil, err
	}
	for _, b := range raw {
		if b > 15 {
			return nil, c.errf("%s byte %#x has unknown bits", field, b)
		}
	}
	return pairSet(slices.Clone(raw)), nil
}

// ReadByte and Read make the cursor a headerReader, so the header
// section decodes through readHeader.
func (c *snapCursor) ReadByte() (byte, error) {
	if c.pos >= len(c.p) {
		return 0, io.EOF
	}
	c.pos++
	return c.p[c.pos-1], nil
}

func (c *snapCursor) Read(p []byte) (int, error) {
	if c.pos >= len(c.p) {
		return 0, io.EOF
	}
	n := copy(p, c.p[c.pos:])
	c.pos += n
	return n, nil
}

func (c *snapCursor) done() error {
	if c.pos != len(c.p) {
		return c.errf("%d trailing bytes", len(c.p)-c.pos)
	}
	return nil
}

// snapDecoder walks the framed sections in order. n counts the bytes
// it has consumed — the magic, and each section's tag, length and
// payload — not what bufio has read ahead of them.
type snapDecoder struct {
	br *bufio.Reader
	n  uint64
}

// ReadByte reads one counted byte (binary.ReadUvarint reads the section
// lengths through it).
func (d *snapDecoder) ReadByte() (byte, error) {
	b, err := d.br.ReadByte()
	if err == nil {
		d.n++
	}
	return b, err
}

// next reads the next section frame and returns its tag and a cursor
// over the payload.
func (d *snapDecoder) next() (byte, *snapCursor, error) {
	tag, err := d.ReadByte()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("monitor: snapshot: section tag: %w", err)
	}
	n, err := binary.ReadUvarint(d)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("monitor: snapshot: section length: %w", err)
	}
	if n > maxSnapSection {
		return 0, nil, fmt.Errorf("monitor: snapshot: section payload %d exceeds the limit %d", n, maxSnapSection)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(d.br, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("monitor: snapshot: section payload: %w", err)
	}
	d.n += n
	return tag, &snapCursor{p: p}, nil
}

// expect reads the next section and requires the given tag.
func (d *snapDecoder) expect(tag byte, what string) (*snapCursor, error) {
	got, c, err := d.next()
	if err != nil {
		return nil, err
	}
	if got != tag {
		return nil, fmt.Errorf("monitor: snapshot: want %s section (tag %d), got tag %d", what, tag, got)
	}
	c.what = what
	return c, nil
}

// more advances to the next chunk of a repeatable section when the
// current cursor has been fully consumed with items still owed (see the
// chunking note in the package comment).
func (d *snapDecoder) more(c **snapCursor, tag byte, what string) error {
	if (*c).pos < len((*c).p) {
		return nil
	}
	nc, err := d.expect(tag, what)
	if err != nil {
		return err
	}
	*c = nc
	return nil
}

// ReadSnapshot decodes and validates a snapshot written by
// Monitor.Snapshot. Malformed input
// produces an error, never a panic, and never a monitor that a
// subsequent Step could crash.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	start := time.Now()
	d := &snapDecoder{br: bufio.NewReader(r)}
	var magic [len(snapMagic) + 1]byte
	if _, err := io.ReadFull(d.br, magic[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("monitor: snapshot header: %w", err)
	}
	d.n += uint64(len(magic))
	if string(magic[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("monitor: not a snapshot (bad magic %q)", magic[:len(snapMagic)])
	}
	if ver := magic[len(snapMagic)]; ver != snapVersion {
		return nil, fmt.Errorf("monitor: snapshot: unsupported version %d (have %d)", ver, snapVersion)
	}

	c, err := d.expect(snapTagHeader, "header")
	if err != nil {
		return nil, err
	}
	hdr, err := readHeader(c, 0)
	if err != nil {
		return nil, c.errf("%v", err)
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	if err := validateHeader(hdr); err != nil {
		return nil, err
	}
	m := New(hdr.Threads, hdr.Decls)
	if err := d.decodeSync(m); err != nil {
		return nil, err
	}
	if err := d.decodeClocks(m); err != nil {
		return nil, err
	}
	if err := d.decodeAtomics(m); err != nil {
		return nil, err
	}
	if err := d.decodeRA(m); err != nil {
		return nil, err
	}
	if err := d.decodeNA(m); err != nil {
		return nil, err
	}
	s := &Snapshot{hdr: hdr, m: m, events: m.events}
	tag, c, err := d.next()
	if err != nil {
		return nil, err
	}
	if tag == snapTagPredict {
		c.what = "predict"
		filtered, err := d.decodePredict(c, m)
		if err != nil {
			return nil, err
		}
		s.filtered = filtered
		tag, c, err = d.next()
		if err != nil {
			return nil, err
		}
	}
	if tag != snapTagEnd {
		return nil, fmt.Errorf("monitor: snapshot: want end section (tag %d), got tag %d", snapTagEnd, tag)
	}
	c.what = "end"
	if err := c.done(); err != nil {
		return nil, err
	}
	// Record the restore cost in the restored monitor's own registry.
	m.mo.snapDecBytes.Observe(d.n)
	m.mo.snapDecNs.Observe(uint64(time.Since(start)))
	return s, nil
}

func (d *snapDecoder) decodeSync(m *Monitor) error {
	c, err := d.expect(snapTagSync, "sync")
	if err != nil {
		return err
	}
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
	return c.done()
}

func (d *snapDecoder) decodeClocks(m *Monitor) error {
	c, err := d.expect(snapTagClocks, "clocks")
	if err != nil {
		return err
	}
	for _, row := range m.clocks {
		if err := c.clock(row, "thread clock"); err != nil {
			return err
		}
	}
	if err := c.clock(m.minClock, "minimum frontier"); err != nil {
		return err
	}
	return c.done()
}

func (d *snapDecoder) decodeAtomics(m *Monitor) error {
	c, err := d.expect(snapTagAtomic, "atomic")
	if err != nil {
		return err
	}
	for l, decl := range m.decls {
		if decl.Kind != prog.Atomic {
			continue
		}
		if err := d.more(&c, snapTagAtomic, "atomic"); err != nil {
			return err
		}
		if err := c.clock(m.at[l], "released clock"); err != nil {
			return err
		}
	}
	return c.done()
}

func (d *snapDecoder) decodeRA(m *Monitor) error {
	c, err := d.expect(snapTagRA, "ra")
	if err != nil {
		return err
	}
	vc := make([]uint64, m.nthreads) // decode buffer; put copies it
	for l, decl := range m.decls {
		if decl.Kind != prog.ReleaseAcquire {
			continue
		}
		if err := d.more(&c, snapTagRA, "ra"); err != nil {
			return err
		}
		count, err := c.uvarint("message count")
		if err != nil {
			return err
		}
		// No allocation is driven by the count itself: the store below
		// grows only with messages actually decoded, and a hostile count
		// runs out of section bytes (an error) rather than memory.
		st := &m.ra[l]
		for i := uint64(0); i < count; i++ {
			if err := d.more(&c, snapTagRA, "ra"); err != nil {
				return err
			}
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
	return c.done()
}

// epochThread validates an epoch thread field: the two sentinels or a
// real thread index.
func (c *snapCursor) epochThread(field string, nthreads int) (int32, error) {
	v, err := c.varint(field)
	if err != nil {
		return 0, err
	}
	if v != int64(noEpoch) && v != int64(escalated) && (v < 0 || v >= int64(nthreads)) {
		return 0, c.errf("%s %d out of range", field, v)
	}
	return int32(v), nil
}

func (d *snapDecoder) decodeNA(m *Monitor) error {
	c, err := d.expect(snapTagNA, "na")
	if err != nil {
		return err
	}
	races := 0
	for l, decl := range m.decls {
		if decl.Kind != prog.NonAtomic {
			continue
		}
		if err := d.more(&c, snapTagNA, "na"); err != nil {
			return err
		}
		ls := &m.ck.na[l]
		flags, err := c.byte("flags")
		if err != nil {
			return err
		}
		if flags&^byte(7) != 0 {
			return c.errf("unknown flag bits %#x", flags)
		}
		ls.wClean = flags&1 != 0
		ls.rClean = flags&2 != 0
		if ls.wT, err = c.epochThread("write epoch thread", m.nthreads); err != nil {
			return err
		}
		if ls.wC, err = c.uvarint("write epoch clock"); err != nil {
			return err
		}
		if ls.rT, err = c.epochThread("read epoch thread", m.nthreads); err != nil {
			return err
		}
		if ls.rC, err = c.uvarint("read epoch clock"); err != nil {
			return err
		}
		lastT, err := c.varint("last thread")
		if err != nil {
			return err
		}
		if lastT < -1 || lastT >= int64(m.nthreads) {
			return c.errf("last thread %d out of range", lastT)
		}
		ls.lastT = int32(lastT)
		if ls.wT == escalated {
			ls.writes = make([]uint64, m.nthreads)
			if err := c.clock(ls.writes, "write vector"); err != nil {
				return err
			}
			m.ck.escalatedSides++
		}
		if ls.rT == escalated {
			ls.reads = make([]uint64, m.nthreads)
			if err := c.clock(ls.reads, "read vector"); err != nil {
				return err
			}
			m.ck.escalatedSides++
		}
		if flags&4 != 0 {
			if ls.reported, err = c.pairSet(m.nthreads, "dedup masks"); err != nil {
				return err
			}
			races += ls.reported.races()
		}
	}
	m.ck.races = races
	return c.done()
}

// decodePredict restores the predicate configuration and (under
// PredShort) the per-location candidate windows. Returns whether the
// checkpointed run had a static pre-filter active. The section is only
// written when something is non-default, so a default payload is
// rejected as non-canonical.
func (d *snapDecoder) decodePredict(c *snapCursor, m *Monitor) (bool, error) {
	predB, err := c.byte("predicate")
	if err != nil {
		return false, err
	}
	if predB > byte(PredShort) {
		return false, c.errf("unknown predicate %d", predB)
	}
	pred := Predicate(predB)
	k, err := c.uvarint("window k")
	if err != nil {
		return false, err
	}
	if (pred == PredShort) != (k > 0) {
		return false, c.errf("window k %d inconsistent with predicate %s", k, pred)
	}
	pf, err := c.byte("filter flag")
	if err != nil {
		return false, err
	}
	if pf > 1 {
		return false, c.errf("filter flag %d not 0 or 1", pf)
	}
	if pred == PredHB && pf == 0 {
		return false, c.errf("section present with default predicate and no filter")
	}
	m.pred = pred
	m.windowK = k
	if pred != PredHB {
		m.ensurePredCells()
	}
	if pred != PredShort {
		return pf == 1, c.done()
	}
	w := newWindow(m.nthreads, len(m.decls), k)
	m.win = w
	races := 0
	for l, decl := range m.decls {
		if decl.Kind != prog.NonAtomic {
			continue
		}
		if err := d.more(&c, snapTagPredict, "predict"); err != nil {
			return false, err
		}
		count, err := c.uvarint("window entry count")
		if err != nil {
			return false, err
		}
		wl := &w.locs[l]
		var prevGidx uint64
		for i := uint64(0); i < count; i++ {
			if err := d.more(&c, snapTagPredict, "predict"); err != nil {
				return false, err
			}
			gidx, err := c.uvarint("entry index")
			if err != nil {
				return false, err
			}
			if gidx < prevGidx {
				return false, c.errf("entry index %d out of FIFO order (previous %d)", gidx, prevGidx)
			}
			if gidx > m.events {
				return false, c.errf("entry index %d beyond event count %d", gidx, m.events)
			}
			prevGidx = gidx
			epoch, err := c.uvarint("entry epoch")
			if err != nil {
				return false, err
			}
			thread, err := c.uvarint("entry thread")
			if err != nil {
				return false, err
			}
			if thread >= uint64(m.nthreads) {
				return false, c.errf("entry thread %d out of range [0,%d)", thread, m.nthreads)
			}
			wb, err := c.byte("entry write flag")
			if err != nil {
				return false, err
			}
			if wb > 1 {
				return false, c.errf("entry write flag %d not 0 or 1", wb)
			}
			wl.entries = append(wl.entries, winEntry{
				gidx: gidx, epoch: epoch, t: int32(thread), write: wb == 1,
			})
		}
		w.live += len(wl.entries)
		mb, err := c.byte("mask flag")
		if err != nil {
			return false, err
		}
		if mb > 1 {
			return false, c.errf("mask flag %d not 0 or 1", mb)
		}
		if mb == 1 {
			if wl.reported, err = c.pairSet(m.nthreads, "window dedup masks"); err != nil {
				return false, err
			}
			races += wl.reported.races()
		}
	}
	w.races = races
	peak, err := c.uvarint("window peak")
	if err != nil {
		return false, err
	}
	if peak > uint64(math.MaxInt) {
		return false, c.errf("window peak %d out of range", peak)
	}
	if int(peak) < w.live {
		return false, c.errf("window peak %d below live count %d", peak, w.live)
	}
	w.peak = int(peak)
	if w.pruned, err = c.uvarint("window pruned"); err != nil {
		return false, err
	}
	return pf == 1, c.done()
}
