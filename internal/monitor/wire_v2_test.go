package monitor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"localdrf/internal/prog"
	"localdrf/internal/race"
	"localdrf/internal/ts"
)

// haltWorkload is wireWorkload plus thread retirements — the shapes only
// v2 and text can carry.
func haltWorkload() (Header, []Event) {
	hdr, events := wireWorkload()
	events = append(events,
		Event{Thread: 0, Kind: KindHalt},
		Event{Thread: 2, Loc: 0, Kind: WriteNA},
		Event{Thread: 2, Kind: KindHalt},
	)
	return hdr, events
}

// TestWireV2RoundTrip: encode → decode through the delta-compressed v2
// format reproduces the header and every event (including halts and RA
// timestamps) exactly.
func TestWireV2RoundTrip(t *testing.T) {
	hdr, events := haltWorkload()
	tr, err := NewTraceReader(bytes.NewReader(encodeAll(t, hdr, events, BinaryV2)))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Header(); !got.Equal(hdr) {
		t.Fatalf("header mismatch: %+v vs %+v", got, hdr)
	}
	decoded, _, end := drainBatches(tr, nil)
	if end != "" || len(decoded) != len(events) {
		t.Fatalf("decoded %d events, end %q; want %d, clean", len(decoded), end, len(events))
	}
	for i, want := range events {
		e := decoded[i]
		if e.Thread != want.Thread || e.Kind != want.Kind {
			t.Fatalf("event %d: got %+v, want %+v", i, e, want)
		}
		if want.Kind != KindHalt && e.Loc != want.Loc {
			t.Fatalf("event %d: loc %d, want %d", i, e.Loc, want.Loc)
		}
		if (want.Kind == ReadRA || want.Kind == WriteRA) && !e.Time.Equal(want.Time) {
			t.Fatalf("event %d: timestamp %v, want %v", i, e.Time, want.Time)
		}
	}
}

// TestWireV2FrameBoundaries: streams longer than one frame round-trip
// across the frame boundary (the delta context persists between frames).
func TestWireV2FrameBoundaries(t *testing.T) {
	decls, events := syntheticWorkload(4, 16, 3*defaultFrameEvents+17, 5)
	hdr := Header{Threads: 4, Decls: decls}
	data := encodeAll(t, hdr, events, BinaryV2)
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var decoded []Event
	batches := 0
	for {
		batch, ok, err := tr.NextBatch(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(batch) == 0 {
			t.Fatal("NextBatch returned ok with no events")
		}
		decoded = append(decoded, batch...)
		batches++
	}
	if batches != 4 {
		t.Fatalf("got %d batches, want 4 (3 full frames + remainder)", batches)
	}
	if len(decoded) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(decoded), len(events))
	}
	for i := range events {
		if decoded[i].Thread != events[i].Thread || decoded[i].Loc != events[i].Loc || decoded[i].Kind != events[i].Kind {
			t.Fatalf("event %d: got %+v, want %+v", i, decoded[i], events[i])
		}
	}

	// NextBatch decodes each frame while the caller steps the one before.
	// It must yield the synchronous pass's events in order, never write
	// the array of the batch the caller holds, and end the same way: here
	// and at every truncation of a trace of many small frames.
	want, _, err := batchParity(data, New(4, decls))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(want, decoded) {
		t.Fatalf("synchronous pass: %d events, want the batch pass's %d", len(want), len(decoded))
	}
	small, _ := smallFrames(t, 5)
	for cut := 0; cut <= len(small); cut++ {
		if _, err := NewTraceReader(bytes.NewReader(small[:cut])); err != nil {
			continue // the header is cut
		}
		if _, _, err := batchParity(small[:cut], nil); err != nil {
			t.Fatalf("cut at byte %d of %d: %v", cut, len(small), err)
		}
	}
}

// smallText is smallFrames's event stream as a text trace, with its
// header and events.
func smallText(tb testing.TB) (data []byte, hdr Header, events []Event) {
	tb.Helper()
	small, _ := smallFrames(tb, 5)
	tr, err := NewTraceReader(bytes.NewReader(small))
	if err != nil {
		tb.Fatal(err)
	}
	events, _, end := syncPass(tr)
	if end != "" {
		tb.Fatal(end)
	}
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, tr.Header(), Text)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range events {
		if err := tw.Write(e); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), tr.Header(), events
}

// TestNextBatchResume: ResumeAt skips through NextBatch and keeps the
// unskipped tail of its last batch, which the next call returns first.
// Resumed at every event offset of a trace of many small frames, binary
// and text (one batch), so mid-frame and at frame edges, the reader
// yields exactly the events after the offset.
func TestNextBatchResume(t *testing.T) {
	small, _ := smallFrames(t, 5)
	text, hdr, events := smallText(t)
	for k := 0; k <= len(events); k++ {
		m := New(hdr.Threads, hdr.Decls)
		m.StepBatch(events[:k])
		var ck bytes.Buffer
		if err := m.Snapshot(&ck); err != nil {
			t.Fatal(err)
		}
		for _, data := range [][]byte{small, text} {
			snap, err := ReadSnapshot(bytes.NewReader(ck.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			tr, err := NewTraceReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.ResumeAt(snap); err != nil {
				t.Fatal(err)
			}
			got, _, end := drainBatches(tr, nil)
			if end != "" || !slices.Equal(got, events[k:]) {
				t.Fatalf("text=%v, resumed at %d: %d events, end %q; want %d, clean", tr.text, k, len(got), end, len(events)-k)
			}
		}
	}
}

// TestNextBatchIgnoresDst: the reader never writes an array the caller
// passes as dst, empty or not, and its batches do not depend on it.
func TestNextBatchIgnoresDst(t *testing.T) {
	small, _ := smallFrames(t, 5)
	text, _, events := smallText(t)
	sentinel := Event{Thread: -1, Loc: -1}
	for _, data := range [][]byte{small, text} {
		foreign := make([]Event, defaultFrameEvents)
		for i := range foreign {
			foreign[i] = sentinel
		}
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var got []Event
		for i := 0; ; i++ {
			batch, ok, err := tr.NextBatch(foreign[:i%2*3])
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, batch...)
		}
		tr.waitAhead()
		if !slices.Equal(got, events) {
			t.Fatalf("text=%v: %d events, want %d", tr.text, len(got), len(events))
		}
		for i, e := range foreign {
			if e != sentinel {
				t.Fatalf("text=%v: dst[%d] written: %+v", tr.text, i, e)
			}
		}
	}
}

// TestNextBatchAbandoned: a reader dropped with decodeDepth frames in
// flight leaves no goroutine behind once they are decoded, and neither
// does one whose first frame in flight is corrupt, so that the frames
// chained after it end without reading.
func TestNextBatchAbandoned(t *testing.T) {
	decls, events := syntheticWorkload(4, 16, (decodeDepth+3)*defaultFrameEvents, 9)
	clean := encodeAll(t, Header{Threads: 4, Decls: decls}, events, BinaryV2)
	small, starts := smallFrames(t, 5)
	corrupt := corruptFrame(small, starts[1])
	for _, tc := range []struct {
		name  string
		data  []byte
		reads int // NextBatch calls before the reader is dropped
	}{
		{"in-flight", clean, 2},
		{"corrupt-first-in-flight", corrupt, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mustNotLeakGoroutines(t, func() {
				tr, err := NewTraceReader(bytes.NewReader(tc.data))
				if err != nil {
					t.Fatal(err)
				}
				for range tc.reads {
					if _, ok, err := tr.NextBatch(nil); err != nil || !ok {
						t.Fatalf("NextBatch: ok=%v err=%v", ok, err)
					}
				}
				if len(tr.ahead) != decodeDepth {
					t.Fatalf("%d frames in flight, want %d", len(tr.ahead), decodeDepth)
				}
			})
		})
	}
}

// corruptFrame returns a copy of data with the payload length of the
// frame at byte offset at set to 0, which the decoder rejects after
// reading that one byte.
func corruptFrame(data []byte, at int) []byte {
	b := slices.Clone(data)
	b[at] = 0
	return b
}

// readCounter is a trace source that yields one byte per Read and
// counts its Reads, so every byte the decoder takes is one Read.
type readCounter struct {
	data  []byte
	reads atomic.Int64
}

func (r *readCounter) Read(p []byte) (int, error) {
	r.reads.Add(1)
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	p[0], r.data = r.data[0], r.data[1:]
	return 1, nil
}

// TestNextBatchReadsNothingPastEnd: once a frame ends the trace — a
// corrupt frame, at every frame index, or the clean end — the frames
// chained after it issue no further Read on the source. The synchronous
// pass, which never decodes ahead, gives the Read count at which the
// trace ends; NextBatch must stop there, with its frames in flight
// waited for. The end is sticky, in text too (a bad line, the clean
// end): later calls return the same error and read nothing.
func TestNextBatchReadsNothingPastEnd(t *testing.T) {
	small, starts := smallFrames(t, 5)
	text, hdr, _ := smallText(t)
	lines := strings.SplitAfter(string(text), "\n")
	lines[2+len(hdr.Decls)+10] = "0 q x\n" // the 11th event line
	inputs := map[string][]byte{
		"clean-end":      small,
		"text-clean-end": text,
		"text-bad-line":  []byte(strings.Join(lines, "")),
	}
	for k, at := range starts {
		inputs[fmt.Sprintf("corrupt-frame-%d", k)] = corruptFrame(small, at)
	}
	for name, data := range inputs {
		src := &readCounter{data: data}
		tr, err := NewTraceReader(src)
		if err != nil {
			t.Fatal(err)
		}
		_, _, wantEnd := syncPass(tr)
		want := src.reads.Load()
		src = &readCounter{data: data}
		if tr, err = NewTraceReader(src); err != nil {
			t.Fatal(err)
		}
		_, _, end := drainBatches(tr, nil)
		tr.waitAhead()
		if got := src.reads.Load(); got != want || end != wantEnd {
			t.Fatalf("%s: %d Reads, end %q; want the synchronous pass's %d, %q", name, got, end, want, wantEnd)
		}
		for range 3 {
			if batch, ok, err := tr.NextBatch(nil); ok || len(batch) > 0 || traceEnd(err) != end {
				t.Fatalf("%s: after the end: %d events, ok=%v, err %v; want none, %q", name, len(batch), ok, err, end)
			}
		}
		if got := src.reads.Load(); got != want {
			t.Fatalf("%s: %d Reads after the end, want %d", name, got, want)
		}
	}
}

// TestWireV2MonitorParity: monitoring the v2-decoded stream (through
// ReadRaces and through stepAll) reports exactly what the original
// slice reports.
func TestWireV2MonitorParity(t *testing.T) {
	hdr, events := haltWorkload()
	direct := New(hdr.Threads, hdr.Decls)
	direct.StepBatch(events)
	want := direct.Reports()
	if len(want) == 0 {
		t.Fatal("workload produced no races; not a useful fixture")
	}
	data := encodeAll(t, hdr, events, BinaryV2)
	got, err := ReadRaces(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !race.ReportsEqual(got, want) {
		t.Fatalf("v2 decoded reports %v, want %v", got, want)
	}
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	m := tr.NewMonitor()
	if err := stepAll(tr, m); err != nil {
		t.Fatal(err)
	}
	if !race.ReportsEqual(m.Reports(), want) {
		t.Fatalf("v2 NextBatch reports %v, want %v", m.Reports(), want)
	}
}

// TestWireV2SemanticsMatchText: a halt-carrying stream encodes to both
// formats and decodes to identical event sequences — the binary format
// is a pure compression of the text format's semantics.
func TestWireV2SemanticsMatchText(t *testing.T) {
	hdr, events := haltWorkload()
	decode := func(data []byte) []Event {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		out, _, end := drainBatches(tr, nil)
		if end != "" {
			t.Fatal(end)
		}
		return out
	}
	txt := decode(encodeAll(t, hdr, events, Text))
	bin := decode(encodeAll(t, hdr, events, BinaryV2))
	if len(txt) != len(events) || len(bin) != len(events) {
		t.Fatalf("text decoded %d events, binary %d, want %d", len(txt), len(bin), len(events))
	}
	for i := range txt {
		if txt[i].Thread != bin[i].Thread || txt[i].Loc != bin[i].Loc || txt[i].Kind != bin[i].Kind || !txt[i].Time.Equal(bin[i].Time) {
			t.Fatalf("event %d: text %+v, binary %+v", i, txt[i], bin[i])
		}
	}
}

// TestWireV2Rejects: the binary decoder errors (never panics) on every
// malformed-frame class and on every version byte but 2.
func TestWireV2Rejects(t *testing.T) {
	hdr, events := haltWorkload()
	v2 := encodeAll(t, hdr, events, BinaryV2)
	hdrOnly := encodeAll(t, hdr, nil, BinaryV2)

	// The retired version 1 is rejected at the header, before any frame
	// is parsed — the same bytes under version byte 1 never yield events.
	for _, ver := range []byte{1, 3} {
		b := append([]byte{}, v2...)
		b[4] = ver
		want := fmt.Sprintf("monitor: trace header: unsupported version %d (have 2)", ver)
		if _, err := NewTraceReader(bytes.NewReader(b)); err == nil || err.Error() != want {
			t.Errorf("version-%d header: got error %v, want %q", ver, err, want)
		}
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"truncated frame payload", v2[:len(v2)-1]},
		{"truncated frame length", append(append([]byte{}, hdrOnly...), 0xff)},
		{"zero-length frame", append(append([]byte{}, hdrOnly...), 0x00)},
		{"oversized frame length", append(append([]byte{}, hdrOnly...), 0xff, 0xff, 0xff, 0xff, 0x7f)},
		{"zero event count", append(append([]byte{}, hdrOnly...), 0x01, 0x00)},
		{"event count exceeding payload", append(append([]byte{}, hdrOnly...), 0x02, 0xff, 0x7f)},
		{"trailing bytes after events", append(append([]byte{}, hdrOnly...),
			// payload: count=1, one NA-write event (tag only), junk byte.
			0x03, 0x01, byte(WriteNA)|7<<4, 0xAA)},
		{"unterminated varint", append(append([]byte{}, hdrOnly...),
			// count=1, tag with explicit loc delta, then 0x80s forever.
			0x0c, 0x01, byte(WriteNA)|15<<4, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80)},
		{"thread delta out of range", append(append([]byte{}, hdrOnly...),
			// count=1, tag with thread delta −1 from prevThread 0.
			0x04, 0x01, byte(WriteNA)|1<<3|7<<4, 0x01)},
		{"loc delta out of range", append(append([]byte{}, hdrOnly...),
			// count=1, tag loc field 0 → delta −7 from prevLoc 0.
			0x03, 0x01, byte(WriteNA)|0<<4)},
		{"halt with nonzero loc field", append(append([]byte{}, hdrOnly...),
			0x03, 0x01, byte(KindHalt)|7<<4)},
		{"kind 7", append(append([]byte{}, hdrOnly...), 0x03, 0x01, 7|7<<4)},
		{"event after halt", append(append([]byte{}, hdrOnly...),
			// count=2: halt t0, then a WriteNA by t0 — breaks the halt
			// promise the monitor's +∞ frontier treatment relies on.
			0x03, 0x02, byte(KindHalt), byte(WriteNA)|7<<4)},
		{"double halt", append(append([]byte{}, hdrOnly...),
			0x03, 0x02, byte(KindHalt), byte(KindHalt))},
		{"text event after halt", []byte("ldtrace 1\nthreads 2\nloc x na\n0 halt\n0 w x\n")},
		{"text double halt", []byte("ldtrace 1\nthreads 2\nloc x na\n0 halt\n0 halt\n")},
		{"zero timestamp denominator", append(append([]byte{}, hdrOnly...),
			// count=1, ReadRA on loc 2 ("R"): loc delta +2, dnum 1, den 0.
			0x05, 0x01, byte(ReadRA)|15<<4, 0x04, 0x02, 0x00)},
	}
	for _, tc := range cases {
		if _, err := ReadRaces(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: decoder accepted malformed input", tc.name)
		}
	}

	// The declaration and halt checks run off the decoder's fast path
	// (validateEvent and checkHalt only format the error), so pin their
	// exact messages. The header is x: nonatomic (0), F: atomic (1),
	// R: ra (2).
	exact := []struct {
		name, want string
		data       []byte
	}{
		{"ReadRA on a nonatomic location",
			`monitor: trace event: ra access on location "x" declared nonatomic`,
			// count=1, ReadRA at loc delta 0, dnum 1, den 1.
			append(append([]byte{}, hdrOnly...), 0x04, 0x01, byte(ReadRA)|7<<4, 0x02, 0x01)},
		{"WriteAT on an RA location",
			`monitor: trace event: atomic access on location "R" declared ra`,
			append(append([]byte{}, hdrOnly...), 0x02, 0x01, byte(WriteAT)|9<<4)},
		{"WriteNA on an atomic location",
			`monitor: trace event: nonatomic access on location "F" declared atomic`,
			append(append([]byte{}, hdrOnly...), 0x02, 0x01, byte(WriteNA)|8<<4)},
		{"event after halt, in the next frame",
			"monitor: trace event: thread 0 acts after its halt",
			append(append([]byte{}, hdrOnly...),
				0x02, 0x01, byte(KindHalt), // frame 1: halt t0
				0x02, 0x01, byte(WriteNA)|7<<4)}, // frame 2: WriteNA by t0
		// A frame declaring more events than its payload can hold fails
		// at the first event the bytes run out for, unless an earlier
		// event fails first.
		{"event count exceeding payload, two events present",
			"monitor: trace frame: truncated event (missing tag)",
			append(append([]byte{}, hdrOnly...), 0x03, 0x05, byte(WriteNA)|7<<4, byte(WriteNA)|7<<4)},
		{"event count exceeding payload, first event mismatched",
			`monitor: trace event: nonatomic access on location "F" declared atomic`,
			append(append([]byte{}, hdrOnly...), 0x02, 0x05, byte(WriteNA)|8<<4)},
		// The format's per-frame cap is checked before any event: 65537
		// events is one too many.
		{"event count above the frame cap",
			"monitor: trace frame: bad event count",
			append(append([]byte{}, hdrOnly...), 0x03, 0x81, 0x80, 0x04)},
	}
	for _, tc := range exact {
		if _, err := ReadRaces(bytes.NewReader(tc.data)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: got error %v, want %q", tc.name, err, tc.want)
		}
	}

	// The encoder enforces the halt promise too, in both formats: no
	// event after a thread's halt, no double halt.
	for _, format := range []Format{BinaryV2, Text} {
		var hbuf bytes.Buffer
		htw, err := NewTraceWriter(&hbuf, hdr, format)
		if err != nil {
			t.Fatal(err)
		}
		if err := htw.Write(Event{Thread: 1, Kind: KindHalt}); err != nil {
			t.Fatalf("%v: first halt rejected: %v", format, err)
		}
		if err := htw.Write(Event{Thread: 1, Loc: 0, Kind: WriteNA}); err == nil {
			t.Errorf("%v writer accepted an event after the thread's halt", format)
		}
		if err := htw.Write(Event{Thread: 1, Kind: KindHalt}); err == nil {
			t.Errorf("%v writer accepted a double halt", format)
		}
		if err := htw.Write(Event{Thread: 0, Loc: 0, Kind: WriteNA}); err != nil {
			t.Errorf("%v writer rejected an unrelated thread after a halt: %v", format, err)
		}
	}
}

// TestWireV2TextHalt: the text format round-trips halt lines.
func TestWireV2TextHalt(t *testing.T) {
	hdr, events := haltWorkload()
	data := encodeAll(t, hdr, events, Text)
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, end := drainBatches(tr, nil)
	if end != "" {
		t.Fatal(end)
	}
	halts := 0
	for _, e := range decoded {
		if e.Kind == KindHalt {
			halts++
		}
	}
	if halts != 2 {
		t.Fatalf("decoded %d halt events, want 2", halts)
	}
}

// TestWireV2TimestampDeltas: timestamps with denominators and negative
// deltas survive the per-location delta chain.
func TestWireV2TimestampDeltas(t *testing.T) {
	hdr := Header{Threads: 2, Decls: []LocDecl{{Name: "R", Kind: prog.ReleaseAcquire}}}
	events := []Event{
		{Thread: 0, Loc: 0, Kind: WriteRA, Time: ts.New(5, 3)},
		{Thread: 1, Loc: 0, Kind: ReadRA, Time: ts.New(5, 3)},
		{Thread: 0, Loc: 0, Kind: WriteRA, Time: ts.New(-2, 7)},
		{Thread: 1, Loc: 0, Kind: ReadRA, Time: ts.New(-2, 7)},
		{Thread: 0, Loc: 0, Kind: WriteRA, Time: ts.New(1000000, 1)},
	}
	data := encodeAll(t, hdr, events, BinaryV2)
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, end := drainBatches(tr, nil)
	if end != "" || len(decoded) != len(events) {
		t.Fatalf("decoded %d events, end %q; want %d, clean", len(decoded), end, len(events))
	}
	for i, want := range events {
		if e := decoded[i]; !e.Time.Equal(want.Time) {
			t.Fatalf("event %d: timestamp %v, want %v", i, e.Time, want.Time)
		}
	}
}

// decodeV2Event is FuzzDecodeFrame's reference decoder: it decodes one
// delta-encoded event at p[pos:] into e, updating the cross-frame delta
// context in tr event by event, and returns the next offset. It performs
// every check validateEvent and checkHalt would — the declaration check
// as one compare against locClass, the halt check only once some thread
// has halted — and defers to them for the error text.
func (tr *TraceReader) decodeV2Event(p []byte, pos int, e *Event) (int, error) {
	if pos >= len(p) {
		return 0, fmt.Errorf("monitor: trace frame: truncated event (missing tag)")
	}
	tag := p[pos]
	pos++
	kind := Kind(tag & 7)
	if kind > KindHalt {
		return 0, fmt.Errorf("monitor: trace event: unknown kind %d", kind)
	}
	// Varint fields: one-byte values decode inline; longer ones go
	// through refUvarint.
	var u uint64
	thread := int64(tr.prevThread)
	if tag&(1<<3) != 0 {
		if pos < len(p) && p[pos] < 0x80 {
			u, pos = uint64(p[pos]), pos+1
		} else if u, pos = refUvarint(p, pos); pos < 0 {
			return 0, fmt.Errorf("monitor: trace event: bad thread delta varint")
		}
		thread += unzigzag(u)
	}
	if thread < 0 || thread >= int64(tr.hdr.Threads) {
		return 0, fmt.Errorf("monitor: trace event: thread %d out of range [0,%d)", thread, tr.hdr.Threads)
	}
	ev := Event{Thread: int32(thread), Kind: kind}
	tr.prevThread = ev.Thread
	locField := tag >> 4
	if kind == KindHalt {
		if locField != 0 {
			return 0, fmt.Errorf("monitor: trace event: halt with nonzero location field")
		}
		*e = ev
		return pos, checkHalt(&tr.halted, tr.hdr.Threads, ev)
	}
	d := int64(locField) - 7
	if locField == 15 {
		if pos < len(p) && p[pos] < 0x80 {
			u, pos = uint64(p[pos]), pos+1
		} else if u, pos = refUvarint(p, pos); pos < 0 {
			return 0, fmt.Errorf("monitor: trace event: bad location delta varint")
		}
		d = unzigzag(u)
	}
	loc := int64(tr.prevLoc[ev.Thread]) + d
	if loc < 0 || loc >= int64(len(tr.hdr.Decls)) {
		return 0, fmt.Errorf("monitor: trace event: location index %d out of range [0,%d)", loc, len(tr.hdr.Decls))
	}
	ev.Loc = int32(loc)
	tr.prevLoc[ev.Thread] = ev.Loc
	if kind == ReadRA || kind == WriteRA {
		if pos < len(p) && p[pos] < 0x80 {
			u, pos = uint64(p[pos]), pos+1
		} else if u, pos = refUvarint(p, pos); pos < 0 {
			return 0, fmt.Errorf("monitor: trace event: bad timestamp delta varint")
		}
		num := tr.prevNum[loc] + unzigzag(u)
		var den uint64
		if pos < len(p) && p[pos] < 0x80 {
			den, pos = uint64(p[pos]), pos+1
		} else if den, pos = refUvarint(p, pos); pos < 0 {
			return 0, fmt.Errorf("monitor: trace event: bad timestamp denominator varint")
		}
		if den == 0 || den > uint64(math.MaxInt64) {
			return 0, fmt.Errorf("monitor: trace event timestamp: denominator %d out of range", den)
		}
		tr.prevNum[loc] = num
		ev.Time = ts.New(num, int64(den))
	}
	if tr.locClass[loc] != uint8(kind>>1) {
		return 0, validateEvent(tr.hdr, ev)
	}
	if tr.halted != nil {
		if err := checkHalt(&tr.halted, tr.hdr.Threads, ev); err != nil {
			return 0, err
		}
	}
	*e = ev
	return pos, nil
}

// refUvarint decodes the uvarint at p[pos:] with binary.Uvarint,
// returning the value and the offset after it, or a negative offset if
// it is truncated or overflows.
func refUvarint(p []byte, pos int) (uint64, int) {
	v, n := binary.Uvarint(p[pos:])
	if n <= 0 {
		return 0, -1
	}
	return v, pos + n
}

// TestUvarintSlow: uvarintSlow accepts exactly the uvarints
// binary.Uvarint does, with the same value and length: every length up
// to the 10-byte limit, a 10th byte over 1 (overflow), an 11-byte run,
// and every truncation of each, read from an offset.
func TestUvarintSlow(t *testing.T) {
	var cases [][]byte
	for _, v := range []uint64{0, 1, 0x7f, 0x80, 1<<14 - 1, 1 << 14, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		cases = append(cases, binary.AppendUvarint(nil, v))
	}
	over := binary.AppendUvarint(nil, math.MaxUint64)
	over[9] = 2
	cases = append(cases, over, bytes.Repeat([]byte{0x80}, 11), append(bytes.Repeat([]byte{0x80}, 9), 0x01))
	for _, c := range cases {
		for cut := 0; cut <= len(c); cut++ {
			b := append([]byte{0xff}, c[:cut]...)
			want, n := binary.Uvarint(b[1:])
			got, end := uvarintSlow(b, 1)
			if (end >= 0) != (n > 0) || n > 0 && (got != want || end != 1+n) {
				t.Errorf("uvarintSlow(% x) = %d, end %d; binary.Uvarint: %d, n %d", b[1:], got, end, want, n)
			}
		}
	}
}

// refDecodePayload is decodePayload built on decodeV2Event: the event
// count, one decodeV2Event call per event appended to dst, then the
// trailing-bytes check.
func (tr *TraceReader) refDecodePayload(p []byte, dst []Event) ([]Event, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 || count == 0 || count > maxFrameEvents {
		return dst, fmt.Errorf("monitor: trace frame: bad event count")
	}
	pos := n
	for range count {
		var e Event
		next, err := tr.decodeV2Event(p, pos, &e)
		if err != nil {
			return dst, err
		}
		dst = append(dst, e)
		pos = next
	}
	if pos != len(p) {
		return dst, fmt.Errorf("monitor: trace frame: %d trailing bytes after %d events", len(p)-pos, count)
	}
	return dst, nil
}

// fuzzFrameHeader is FuzzDecodeFrame's header: 1+shape&0xff threads and
// 1+shape>>8 locations, location l of kind l%3 (nonatomic, atomic, ra).
func fuzzFrameHeader(shape uint16) Header {
	hdr := Header{Threads: 1 + int(shape&0xff)}
	for l := range 1 + int(shape>>8) {
		hdr.Decls = append(hdr.Decls, LocDecl{Name: prog.Loc(fmt.Sprintf("l%d", l)), Kind: prog.LocKind(l % 3)})
	}
	return hdr
}

// withContext sets tr's delta context from ctx: prevThread, a halt mask
// (when its flag byte is nonzero), each thread's prevLoc, then each
// location's prevNum as varints. Missing bytes read as zero.
func withContext(tr *TraceReader, ctx []byte) {
	next := func() int {
		if len(ctx) == 0 {
			return 0
		}
		b := ctx[0]
		ctx = ctx[1:]
		return int(b)
	}
	threads, locs := tr.hdr.Threads, len(tr.hdr.Decls)
	tr.prevThread = int32(next() % threads)
	if next() != 0 {
		tr.halted = make([]bool, threads)
		for t := range tr.halted {
			tr.halted[t] = next()&1 != 0
		}
	}
	for t := range tr.prevLoc {
		tr.prevLoc[t] = int32(next() % locs)
	}
	for l := range tr.prevNum {
		v, n := binary.Varint(ctx)
		if n <= 0 {
			break
		}
		tr.prevNum[l], ctx = v, ctx[n:]
	}
}

// encodedFrames is FuzzDecodeFrame's frames argument for the frames
// one encoder writes under hdr, one frame per events slice.
func encodedFrames(tb testing.TB, hdr Header, frames ...[]Event) []byte {
	tb.Helper()
	var head, all bytes.Buffer
	if _, err := NewTraceWriter(&head, hdr, BinaryV2); err != nil {
		tb.Fatal(err)
	}
	tw, err := NewTraceWriter(&all, hdr, BinaryV2)
	if err != nil {
		tb.Fatal(err)
	}
	for _, events := range frames {
		for _, e := range events {
			if err := tw.Write(e); err != nil {
				tb.Fatal(err)
			}
		}
		if err := tw.Flush(); err != nil { // each Flush ends a frame
			tb.Fatal(err)
		}
	}
	var payloads [][]byte
	for rest := all.Bytes()[head.Len():]; len(rest) > 0; {
		n, k := binary.Uvarint(rest)
		payloads = append(payloads, rest[k:k+int(n)])
		rest = rest[k+int(n):]
	}
	return framesOf(payloads...)
}

// framesOf joins payloads as FuzzDecodeFrame's frames argument: each
// payload behind a one-byte length.
func framesOf(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		if len(p) > 0xff {
			panic("framesOf: payload over 255 bytes")
		}
		b = append(append(b, byte(len(p))), p...)
	}
	return b
}

// FuzzDecodeFrame is a differential fuzz of the binary frame decoder:
// decodePayload, the one loop every binary read runs, against
// refDecodePayload, the same payload decoded event by event by
// decodeV2Event. Both start from the same header and delta context (see
// withContext) and decode the same frames in turn (each frames entry is
// a length byte, then that many payload bytes). Per frame the events,
// the valid prefix, the error text and the delta context carried out
// must be equal; decoding stops after the first error. FuzzTraceReader
// cannot catch a decode bug, as NextBatch and its reference pass share
// decodePayload.
func FuzzDecodeFrame(f *testing.F) {
	// Big: 130 threads and locations, so deltas of 64 or more take
	// multi-byte varints; location 101 is ra, 100 atomic, 99 nonatomic.
	big := uint16(129 | 129<<8)
	bigHdr := fuzzFrameHeader(big)
	f.Add(big, []byte{}, encodedFrames(f, bigHdr, []Event{
		{Thread: 100, Loc: 101, Kind: WriteRA, Time: ts.New(1000, 201)},
		{Thread: 100, Loc: 101, Kind: ReadRA, Time: ts.New(-50000, 129)},
		{Thread: 3, Loc: 101, Kind: WriteRA, Time: ts.New(7, 1)},
		{Thread: 3, Loc: 2, Kind: ReadRA, Time: ts.New(-1, 1)},
		{Thread: 120, Loc: 99, Kind: WriteNA},
		{Thread: 120, Loc: 100, Kind: ReadAT},
		{Thread: 120, Loc: 0, Kind: ReadNA},
	}, []Event{
		{Thread: 0, Loc: 101, Kind: ReadRA, Time: ts.New(9, 1)},
		{Thread: 129, Kind: KindHalt},
	}))
	// A frame encoded from the zero context, decoded from another:
	// prevThread 5, no halt mask, thread 0's prevLoc 1.
	f.Add(big, []byte{5, 0, 1}, encodedFrames(f, bigHdr, []Event{
		{Thread: 5, Loc: 101, Kind: WriteRA, Time: ts.New(1, 3)},
	}))

	// Small: 3 threads; x nonatomic, F atomic, R ra.
	small := uint16(2 | 2<<8)
	w := byte(WriteNA) | 7<<4 // a WriteNA by the last thread, same location
	seeds := [][]byte{
		// A halt mid-frame, then the other threads act on.
		encodedFrames(f, fuzzFrameHeader(small), []Event{
			{Thread: 0, Loc: 0, Kind: WriteNA},
			{Thread: 1, Kind: KindHalt},
			{Thread: 0, Loc: 2, Kind: ReadRA, Time: ts.New(4, 1)},
			{Thread: 2, Kind: KindHalt},
		}),
		framesOf([]byte{0x02, byte(KindHalt), byte(KindHalt)}),  // second halt
		framesOf([]byte{0x02, byte(KindHalt), w}),               // event after a halt
		framesOf([]byte{0x01, byte(KindHalt)}, []byte{0x01, w}), // ... in the next frame
		framesOf([]byte{0x01, w | 1<<3, 0x01}),                  // thread −1
		framesOf([]byte{0x01, w | 1<<3, 0x06}),                  // thread 3 of 3
		framesOf([]byte{0x01, byte(WriteNA)}),                   // location −7
		framesOf([]byte{0x01, byte(WriteNA) | 15<<4, 0x06}),     // location 3 of 3
		framesOf([]byte{0x01, byte(WriteNA) | 8<<4}),            // nonatomic access on F
		framesOf([]byte{0x01, byte(ReadRA) | 7<<4, 0x02, 0x01}), // ra access on x
		framesOf([]byte{0x02, w}),                               // tag truncated at the frame's end
		framesOf([]byte{0x01, byte(ReadRA) | 9<<4, 0x02, 0x00}), // denominator 0
		framesOf([]byte{0x01, byte(ReadRA) | 9<<4, 0x02}),       // denominator missing
		framesOf([]byte{0x01, w | 1<<3, 0x80}),                  // thread delta varint cut
		framesOf([]byte{0x01, 7 | 7<<4}),                        // kind 7
		framesOf([]byte{0x01, byte(KindHalt) | 7<<4}),           // halt with a location field
		framesOf([]byte{0x01, w, 0xAA}),                         // trailing byte
		framesOf([]byte{0x00}),                                  // zero event count
	}
	for _, s := range seeds {
		f.Add(small, []byte{}, s)
	}
	f.Fuzz(func(t *testing.T, shape uint16, ctx, frames []byte) {
		hdr := fuzzFrameHeader(shape)
		var head bytes.Buffer
		if _, err := NewTraceWriter(&head, hdr, BinaryV2); err != nil {
			t.Fatal(err)
		}
		reader := func() *TraceReader {
			tr, err := NewTraceReader(bytes.NewReader(head.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			withContext(tr, ctx)
			return tr
		}
		got, want := reader(), reader()
		for k := 0; len(frames) > 0; k++ {
			n := min(int(frames[0]), len(frames)-1)
			p := frames[1 : 1+n]
			frames = frames[1+n:]
			// Every other frame appends to a non-empty dst.
			var dst []Event
			if k%2 == 1 {
				dst = []Event{{Thread: -1}}
			}
			gotEv, gotErr := got.decodePayload(p, slices.Clone(dst))
			wantEv, wantErr := want.refDecodePayload(p, slices.Clone(dst))
			if !slices.Equal(gotEv, wantEv) {
				t.Fatalf("frame %d: decoded %v, reference %v", k, gotEv, wantEv)
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("frame %d: error %v, reference %v", k, gotErr, wantErr)
			}
			if got.prevThread != want.prevThread || !slices.Equal(got.prevLoc, want.prevLoc) ||
				!slices.Equal(got.prevNum, want.prevNum) || !slices.Equal(got.halted, want.halted) {
				t.Fatalf("frame %d: context (thread %d, locs %v, nums %v, halted %v), reference (%d, %v, %v, %v)", k,
					got.prevThread, got.prevLoc, got.prevNum, got.halted,
					want.prevThread, want.prevLoc, want.prevNum, want.halted)
			}
			if gotErr != nil {
				return
			}
		}
	})
}

// BenchmarkDecodeV2 measures the decode layer alone: NewTraceReader plus
// NextBatch over a 1M-event bursty v2 trace held in memory, with no
// monitor behind it.
func BenchmarkDecodeV2(b *testing.B) {
	decls, events := burstyWorkload(8, 64, 1_000_000, 97)
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, Header{Threads: 8, Decls: decls}, BinaryV2)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range events {
		if err := tw.Write(e); err != nil {
			b.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			batch, ok, err := tr.NextBatch(nil)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n += len(batch)
		}
		if n != len(events) {
			b.Fatalf("decoded %d events, want %d", n, len(events))
		}
	}
	reportEventRate(b, len(events))
}
