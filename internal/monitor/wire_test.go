package monitor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"

	"localdrf/internal/prog"
	"localdrf/internal/race"
	"localdrf/internal/ts"
)

// wireWorkload is a small mixed stream over NA, atomic and RA locations,
// racy enough that round-trip report comparison is meaningful.
func wireWorkload() (Header, []Event) {
	hdr := Header{
		Threads: 3,
		Decls: []LocDecl{
			{Name: "x", Kind: prog.NonAtomic},
			{Name: "F", Kind: prog.Atomic},
			{Name: "R", Kind: prog.ReleaseAcquire},
		},
	}
	events := []Event{
		{Thread: 0, Loc: 0, Kind: WriteNA},
		{Thread: 0, Loc: 2, Kind: WriteRA, Time: ts.New(1, 2)},
		{Thread: 1, Loc: 2, Kind: ReadRA, Time: ts.New(1, 2)},
		{Thread: 1, Loc: 0, Kind: ReadNA}, // ordered via the RA edge
		{Thread: 2, Loc: 0, Kind: ReadNA}, // races with T0's write
		{Thread: 2, Loc: 1, Kind: WriteAT},
		{Thread: 0, Loc: 1, Kind: ReadAT},
		{Thread: 2, Loc: 0, Kind: WriteNA},                    // races with T0's write
		{Thread: 1, Loc: 2, Kind: ReadRA, Time: ts.New(7, 1)}, // dangling reads-from: no edge
	}
	return hdr, events
}

// encodeAll writes a header and events in the given format.
func encodeAll(t *testing.T, hdr Header, events []Event, format Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, hdr, format)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := tw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireRoundTrip: encode → decode reproduces the header and events
// exactly (modulo the timestamps of non-RA events, which the format does
// not carry and the monitor ignores), in both formats.
func TestWireRoundTrip(t *testing.T) {
	hdr, events := wireWorkload()
	for _, format := range []Format{BinaryV2, Text} {
		data := encodeAll(t, hdr, events, format)
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		got := tr.Header()
		if got.Threads != hdr.Threads || len(got.Decls) != len(hdr.Decls) {
			t.Fatalf("%v: header mismatch: %+v vs %+v", format, got, hdr)
		}
		for i := range hdr.Decls {
			if got.Decls[i] != hdr.Decls[i] {
				t.Fatalf("%v: decl %d mismatch: %+v vs %+v", format, i, got.Decls[i], hdr.Decls[i])
			}
		}
		for i, want := range events {
			e, ok, err := tr.Next()
			if err != nil || !ok {
				t.Fatalf("%v: event %d: ok=%v err=%v", format, i, ok, err)
			}
			if e.Thread != want.Thread || e.Loc != want.Loc || e.Kind != want.Kind {
				t.Fatalf("%v: event %d: got %+v, want %+v", format, i, e, want)
			}
			if (want.Kind == ReadRA || want.Kind == WriteRA) && !e.Time.Equal(want.Time) {
				t.Fatalf("%v: event %d: timestamp %v, want %v", format, i, e.Time, want.Time)
			}
		}
		if _, ok, err := tr.Next(); ok || err != nil {
			t.Fatalf("%v: expected clean end of trace, got ok=%v err=%v", format, ok, err)
		}
	}
}

// TestWireMonitorParity: monitoring the decoded stream reports exactly
// what monitoring the original slice reports.
func TestWireMonitorParity(t *testing.T) {
	hdr, events := wireWorkload()
	direct := New(hdr.Threads, hdr.Decls)
	for _, e := range events {
		direct.Step(e)
	}
	want := direct.Reports()
	if len(want) == 0 {
		t.Fatal("workload produced no races; not a useful fixture")
	}
	for _, format := range []Format{BinaryV2, Text} {
		data := encodeAll(t, hdr, events, format)
		got, err := ReadRaces(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		if !race.ReportsEqual(got, want) {
			t.Fatalf("%v: decoded reports %v, want %v", format, got, want)
		}
	}
}

// TestWireTextComments: comments and blank lines are skipped.
func TestWireTextComments(t *testing.T) {
	src := `ldtrace 1
# a comment
threads 2

loc x na
0 w x   # trailing comment
1 r x
`
	reports, err := ReadRaces(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("got %v, want one write/read race on x", reports)
	}
}

// floodReader yields prefix, then n bytes of 'a' with no newline,
// counting the bytes it hands out.
type floodReader struct {
	prefix string
	n      int
	read   int
}

func (f *floodReader) Read(p []byte) (int, error) {
	total := len(f.prefix) + f.n
	if f.read >= total {
		return 0, io.EOF
	}
	k := min(len(p), total-f.read)
	for i := range k {
		if pos := f.read + i; pos < len(f.prefix) {
			p[i] = f.prefix[pos]
		} else {
			p[i] = 'a'
		}
	}
	f.read += k
	return k, nil
}

// TestWireTextLineLimit: the text decoder fails on a line longer than
// maxTextLine, in the header or among the events, after reading at most
// one buffer past the limit; a line of exactly maxTextLine bytes,
// comment and newline included, is accepted.
func TestWireTextLineLimit(t *testing.T) {
	for _, prefix := range []string{"", "ldtrace 1\nthreads 1\nloc x na\n"} {
		f := &floodReader{prefix: prefix, n: maxTextLine + 2<<20}
		tr, err := NewTraceReader(f)
		if err == nil {
			_, _, err = tr.Next()
		}
		if err == nil || !strings.Contains(err.Error(), "longer than") {
			t.Fatalf("prefix %q: err = %v, want a line-length error", prefix, err)
		}
		if limit := len(prefix) + maxTextLine + 4096; f.read > limit {
			t.Fatalf("prefix %q: read %d bytes of an unterminated line, want at most %d", prefix, f.read, limit)
		}
	}
	event := "0 w x #"
	hdr := "ldtrace 1\nthreads 1\nloc x na\n"
	fits := hdr + event + strings.Repeat("c", maxTextLine-len(event)-1) + "\n"
	if _, err := ReadRaces(strings.NewReader(fits)); err != nil {
		t.Fatalf("a %d-byte line rejected: %v", maxTextLine, err)
	}
	over := hdr + event + strings.Repeat("c", maxTextLine-len(event)) + "\n"
	if _, err := ReadRaces(strings.NewReader(over)); err == nil {
		t.Fatalf("a %d-byte line accepted", maxTextLine+1)
	}
}

// TestWireDecoderRejects: every malformed-input class errors instead of
// panicking or silently yielding events the monitor would crash on.
func TestWireDecoderRejects(t *testing.T) {
	hdr, events := wireWorkload()
	bin := encodeAll(t, hdr, events, BinaryV2)
	txt := encodeAll(t, hdr, events, Text)

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated binary magic", bin[:2]},
		{"truncated binary header", bin[:6]},
		{"truncated binary event", bin[:len(bin)-1]},
		{"bad binary version", append([]byte("LDTR\x07"), bin[5:]...)},
		{"binary junk after header", func() []byte {
			h := encodeAll(t, hdr, nil, BinaryV2)
			return append(h, 0xEE, 0x01, 0x02)
		}()},
		{"text junk", []byte("not a trace\n")},
		{"text bad version", []byte("ldtrace 9\nthreads 1\n")},
		{"text missing threads", []byte("ldtrace 1\nloc x na\n")},
		{"text zero threads", []byte("ldtrace 1\nthreads 0\n")},
		{"text dup loc", []byte("ldtrace 1\nthreads 1\nloc x na\nloc x at\n")},
		{"text unknown kind", []byte("ldtrace 1\nthreads 1\nloc x xx\n")},
		{"text thread out of range", []byte("ldtrace 1\nthreads 2\nloc x na\n2 w x\n")},
		{"text undeclared loc", []byte("ldtrace 1\nthreads 2\nloc x na\n0 w y\n")},
		{"text bad op", []byte("ldtrace 1\nthreads 2\nloc x na\n0 q x\n")},
		{"text missing RA time", []byte("ldtrace 1\nthreads 2\nloc R ra\n0 w R\n")},
		{"text time on NA", []byte("ldtrace 1\nthreads 2\nloc x na\n0 w x 3\n")},
		{"text zero denominator", []byte("ldtrace 1\nthreads 2\nloc R ra\n0 w R 1/0\n")},
		{"text malformed time", []byte("ldtrace 1\nthreads 2\nloc R ra\n0 w R one\n")},
		{"truncated text event", append(append([]byte{}, txt...), []byte("0 w\n")...)},
		{"hostile threads×locations product", hostileHeader()},
	}
	for _, tc := range cases {
		if _, err := ReadRaces(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: decoder accepted malformed input", tc.name)
		}
	}
}

// hostileHeader hand-crafts a small binary header whose per-dimension
// sizes are legal but whose threads × locations product would make the
// monitor eagerly allocate hundreds of megabytes of atomic clock
// vectors. The decoder must reject it before any monitor exists.
func hostileHeader() []byte {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	buf.WriteByte(binaryVersion)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	const threads, locs = 1 << 10, 1 << 14 // product 2× over maxWireCells
	put(threads)
	put(locs)
	for i := 0; i < locs; i++ {
		name := fmt.Sprintf("l%d", i)
		put(uint64(len(name)))
		buf.WriteString(name)
		buf.WriteByte(1) // atomic: the kind with the eager O(threads) vector
	}
	return buf.Bytes()
}

// TestWireWriterRejects: the encoder validates events against the header
// so malformed traces cannot be produced in the first place.
func TestWireWriterRejects(t *testing.T) {
	hdr, _ := wireWorkload()
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, hdr, BinaryV2)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Event{
		{Thread: 3, Loc: 0, Kind: WriteNA},                      // thread out of range
		{Thread: 0, Loc: 9, Kind: WriteNA},                      // loc out of range
		{Thread: 0, Loc: 0, Kind: WriteRA, Time: ts.FromInt(1)}, // RA access on NA loc
		{Thread: 0, Loc: 2, Kind: WriteNA},                      // NA access on RA loc
		{Thread: 0, Loc: 0, Kind: Kind(42)},                     // unknown kind
	}
	for _, e := range bad {
		if err := tw.Write(e); err == nil {
			t.Errorf("writer accepted invalid event %+v", e)
		}
	}
	if _, err := NewTraceWriter(&buf, Header{Threads: 0}, BinaryV2); err == nil {
		t.Error("writer accepted zero-thread header")
	}
	if _, err := NewTraceWriter(&buf, Header{
		Threads: 1, Decls: []LocDecl{{Name: "a b", Kind: prog.NonAtomic}},
	}, Text); err == nil {
		t.Error("writer accepted location name with whitespace")
	}
}

// FuzzTraceReader: the decoder must never panic, and every event it does
// yield must be safe for the monitor to consume. Seeds cover both
// formats (binary with and without halts, text) and a few corruption
// shapes, including binary frames under the retired version byte 1 and
// under a future version 3; the fuzz body exercises both the per-event
// and the batch decoding paths.
func FuzzTraceReader(f *testing.F) {
	hdr, events := wireWorkload()
	noHalt := encodeAllFuzz(f, hdr, events, BinaryV2)
	events = append(events, Event{Thread: 0, Kind: KindHalt})
	txt := encodeAllFuzz(f, hdr, events, Text)
	v2 := encodeAllFuzz(f, hdr, events, BinaryV2)
	withVersion := func(ver byte) []byte {
		b := append([]byte{}, v2...)
		b[4] = ver
		return b
	}
	f.Add(noHalt)
	f.Add(txt)
	f.Add(v2)
	f.Add(v2[:9])         // truncated header
	f.Add(v2[:len(v2)-3]) // truncated mid-frame
	f.Add(withVersion(1)) // rejected: the retired v1 version byte
	f.Add(withVersion(3)) // rejected: a future version
	f.Add([]byte("LDTR\x02\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte("LDTR\x02\x02\x01\x01x\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte("ldtrace 1\nthreads 3\nloc R ra\n0 w R -5/3\n0 halt\n"))
	f.Add([]byte{})
	f.Add(hostileHeader()) // rejected by the threads × locations limit
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, batched := range []bool{false, true} {
			tr, err := NewTraceReader(bytes.NewReader(data))
			if err != nil {
				return
			}
			h := tr.Header()
			// Cap the monitored shape: the monitor's clock state is
			// O(threads²) and the decoder's limits allow sizes that are fine
			// for real traces but too slow to allocate per fuzz exec.
			feed := h.Threads <= 64 && len(h.Decls) <= 1024
			var m *Monitor
			if feed {
				m = New(h.Threads, h.Decls)
				m.SetGCInterval(64)
			}
			var batch []Event
			for i := 0; i < 1<<16; i++ {
				if batched {
					var ok bool
					batch, ok, err = tr.NextBatch(batch[:0])
					if err != nil || !ok {
						break
					}
					for _, e := range batch {
						if verr := validateEvent(h, e); verr != nil {
							t.Fatalf("batch decoder yielded invalid event %+v: %v", e, verr)
						}
					}
					if feed {
						m.StepBatch(batch)
					}
					continue
				}
				e, ok, err := tr.Next()
				if err != nil || !ok {
					break
				}
				if verr := validateEvent(h, e); verr != nil {
					t.Fatalf("decoder yielded invalid event %+v: %v", e, verr)
				}
				if feed {
					m.Step(e)
				}
			}
			if feed {
				_ = m.Reports()
			}
		}
	})
}

// encodeAllFuzz is encodeAll for fuzz seed construction (f.Fatal on error).
func encodeAllFuzz(f *testing.F, hdr Header, events []Event, format Format) []byte {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, hdr, format)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range events {
		if err := tw.Write(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// budgetHeader writes a trace header of 2 threads and n nonatomic
// locations with 100-byte names in the given format, bypassing the
// encoder's own check of the header budget.
func budgetHeader(format Format, n int) []byte {
	var buf bytes.Buffer
	name := func(i int) string { return fmt.Sprintf("%0100d", i) }
	if format == Text {
		buf.WriteString("ldtrace 1\nthreads 2\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&buf, "loc %s na\n", name(i))
		}
		return buf.Bytes()
	}
	buf.WriteString(binaryMagic)
	buf.WriteByte(binaryVersion)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	put(2)
	put(uint64(n))
	for i := 0; i < n; i++ {
		put(100)
		buf.WriteString(name(i))
		buf.WriteByte(byte(prog.NonAtomic))
	}
	return buf.Bytes()
}

// TestTraceReaderLimits: the format's 1 MiB header budget turns
// "individually legal, collectively enormous" header declarations into
// validation errors raised before the allocation they describe — the
// ingest hardening a server decoding untrusted network traces relies
// on. Every field here is within its own limit; only the total is not.
func TestTraceReaderLimits(t *testing.T) {
	// 1<<14 declarations of 116 budget bytes each are 1.8 MiB: both
	// decoders must stop at the 9040th, long before the last.
	const n = 1 << 14
	const wantAfter = "header budget after 9039 locations"
	t.Run("hostile-binary-header", func(t *testing.T) {
		_, err := NewTraceReader(bytes.NewReader(budgetHeader(BinaryV2, n)))
		if err == nil || !strings.Contains(err.Error(), wantAfter) {
			t.Fatalf("hostile header: err = %v, want %q", err, wantAfter)
		}
	})

	t.Run("hostile-text-header", func(t *testing.T) {
		_, err := NewTraceReader(bytes.NewReader(budgetHeader(Text, n)))
		if err == nil || !strings.Contains(err.Error(), wantAfter) {
			t.Fatalf("hostile text header: err = %v, want %q", err, wantAfter)
		}
	})

	// One rule for both decoders, the encoder and CheckHeader: 9039
	// declarations fit, 9040 do not.
	t.Run("budget-edge", func(t *testing.T) {
		for _, format := range []Format{BinaryV2, Text} {
			tr, err := NewTraceReader(bytes.NewReader(budgetHeader(format, 9039)))
			if err != nil {
				t.Fatalf("%v: header under the budget rejected: %v", format, err)
			}
			hdr := tr.Header()
			if err := CheckHeader(hdr); err != nil {
				t.Fatalf("CheckHeader rejects what the %v decoder accepted: %v", format, err)
			}
			if _, err := NewTraceWriter(io.Discard, hdr, format); err != nil {
				t.Fatalf("%v: encoder rejects what the decoder accepted: %v", format, err)
			}
			if _, err := NewTraceReader(bytes.NewReader(budgetHeader(format, 9040))); err == nil || !strings.Contains(err.Error(), wantAfter) {
				t.Fatalf("%v: header at the budget: err = %v, want %q", format, err, wantAfter)
			}
			hdr.Decls = append(hdr.Decls, LocDecl{Name: prog.Loc(fmt.Sprintf("%0100d", 9039)), Kind: prog.NonAtomic})
			if _, err := NewTraceWriter(io.Discard, hdr, format); err == nil || !strings.Contains(err.Error(), wantAfter) {
				t.Fatalf("%v: encoder at the budget: err = %v, want %q", format, err, wantAfter)
			}
		}
	})
}
