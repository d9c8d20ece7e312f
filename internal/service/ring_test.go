package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"localdrf/internal/faultinject"
	"localdrf/internal/monitor"
	"localdrf/internal/prog"
)

// testMonitor builds a tiny monitor advanced by n events, so ring
// entries with different recovery points are distinguishable by their
// restored event count.
func testMonitor(n int) *monitor.Monitor {
	m := monitor.New(2, []monitor.LocDecl{{Name: "x", Kind: prog.NonAtomic}})
	for i := 0; i < n; i++ {
		m.Step(monitor.Event{Thread: int32(i % 2), Loc: 0, Kind: monitor.WriteNA})
	}
	return m
}

// writeGen writes one ring generation capturing a monitor at n events.
func writeGen(t *testing.T, r *ckRing, n int) {
	t.Helper()
	if err := r.write(testMonitor(n).Snapshot); err != nil {
		t.Fatalf("ring write at %d events: %v", n, err)
	}
}

// recoveredEvents decodes the recovery result's event count.
func recoveredEvents(t *testing.T, snap *monitor.Snapshot) uint64 {
	t.Helper()
	if snap == nil {
		t.Fatal("recovery returned no snapshot")
	}
	return snap.Open(monitor.PipelineConfig{}).Events()
}

func newTestRing(t *testing.T, size int) *ckRing {
	return newRing(faultinject.OS(), filepath.Join(t.TempDir(), "sess"), size)
}

// TestRingEmpty: an empty (or absent) ring recovers to "no state" —
// the session restarts from event 0, which is sound because the client
// replays its trace from byte 0.
func TestRingEmpty(t *testing.T) {
	r := newTestRing(t, 3)
	snap, skipped, err := r.recover()
	if snap != nil || skipped != 0 || err != nil {
		t.Fatalf("empty ring: recover() = (%v, %d, %v), want (nil, 0, nil)", snap, skipped, err)
	}
	// A ring whose directory exists but holds no entries behaves the same.
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if snap, skipped, err = r.recover(); snap != nil || skipped != 0 || err != nil {
		t.Fatalf("empty dir: recover() = (%v, %d, %v), want (nil, 0, nil)", snap, skipped, err)
	}
}

// ckV2 is testMonitor(400)'s snapshot as the version-2 encoder wrote it,
// a ring entry an upgraded server finds on disk.
const ckV2 = "\x4c\x44\x43\x4b\x02\x01\x05\x02\x01\x01\x78\x00\x02\x0b\x90\x03" +
	"\x80\x20\x80\x20\x00\x00\x00\x00\x00\x03\x08\xc8\x01\x00\x00\xc8" +
	"\x01\x00\x00\x04\x00\x05\x00\x06\x0e\x04\x03\x01\x01\x00\x02\xc8" +
	"\x01\xc8\x01\x00\x08\x08\x00\x00\x00"

// ckV4 is the same snapshot as the version-4 encoder wrote it, with
// the same-thread skip cache (clean bits and last thread) in its
// nonatomic record.
const ckV4 = "\x4c\x44\x43\x4b\x04\x02\x01\x01\x78\x00\x90\x03\x80\x20\x80\x20" +
	"\x00\x00\x00\xc8\x01\x00\x00\xc8\x01\x00\x00\x04\x03\x01\x01\x00" +
	"\x02\xc8\x01\xc8\x01\x00\x08\x08\x00\x00\x45"

// TestRingAllCorrupt: when every generation is damaged, or written in a
// retired snapshot version (2 or 4), recovery reports an error (the
// caller logs it and restarts from event 0, which is sound: the client
// replays from byte 0) and positions the next write PAST the unusable
// generations so they are never silently overwritten-in-place.
func TestRingAllCorrupt(t *testing.T) {
	r := newTestRing(t, 3)
	writeGen(t, r, 100)
	writeGen(t, r, 200)
	if _, err := monitor.ReadSnapshot(strings.NewReader(ckV2)); err == nil || !strings.Contains(err.Error(), "unsupported version 2") {
		t.Fatalf("version-2 entry: got %v, want an unsupported-version error", err)
	}
	if err := os.WriteFile(filepath.Join(r.dir, ckName(2)), []byte(ckV2), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := monitor.ReadSnapshot(strings.NewReader(ckV4)); err == nil || !strings.Contains(err.Error(), "unsupported version 4 (have 5)") {
		t.Fatalf("version-4 entry: got %v, want an unsupported-version error", err)
	}
	if err := os.WriteFile(filepath.Join(r.dir, ckName(3)), []byte(ckV4), 0o644); err != nil {
		t.Fatal(err)
	}
	// Damage both entries: one truncated to a prefix, one bit-flipped.
	for i, name := range []string{ckName(0), ckName(1)} {
		path := filepath.Join(r.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			data = data[:len(data)/3]
		} else {
			data[len(data)/2] ^= 0xFF
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r2 := newRing(faultinject.OS(), r.dir, 4)
	snap, skipped, err := r2.recover()
	if err == nil || snap != nil {
		t.Fatalf("all-corrupt ring: recover() = (%v, %v), want error", snap, err)
	}
	if skipped != 4 {
		t.Fatalf("skipped = %d, want 4", skipped)
	}
	// The next write must open generation 4, not clobber the evidence.
	writeGen(t, r2, 300)
	if _, err := os.Stat(filepath.Join(r.dir, ckName(4))); err != nil {
		t.Fatalf("post-recovery write did not use the next generation: %v", err)
	}
}

// TestRingNewestTruncated: a crash mid-checkpoint leaves the newest
// entry truncated; recovery must fall back to the previous generation.
// (The LDCK codec validates every field, so the torn file fails
// closed rather than restoring partial state.)
func TestRingNewestTruncated(t *testing.T) {
	r := newTestRing(t, 3)
	writeGen(t, r, 100)
	writeGen(t, r, 250)
	newest := filepath.Join(r.dir, ckName(1))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the state, past the magic/header, emulating a
	// write torn by power loss that still renamed (e.g. fsync lied).
	if err := os.WriteFile(newest, data[:2*len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := newRing(faultinject.OS(), r.dir, 3)
	snap, skipped, err := r2.recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	if got := recoveredEvents(t, snap); got != 100 {
		t.Fatalf("recovered at %d events, want 100 (previous generation)", got)
	}
}

// TestRingSkipsTwoGenerations: recovery walks back as far as it must —
// here the two newest entries are damaged and the oldest restores.
func TestRingSkipsTwoGenerations(t *testing.T) {
	r := newTestRing(t, 3)
	writeGen(t, r, 50)
	writeGen(t, r, 150)
	writeGen(t, r, 300)
	for _, name := range []string{ckName(1), ckName(2)} {
		path := filepath.Join(r.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0x01 // damage the tail (checksummed state)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r2 := newRing(faultinject.OS(), r.dir, 3)
	snap, skipped, err := r2.recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2", skipped)
	}
	if got := recoveredEvents(t, snap); got != 50 {
		t.Fatalf("recovered at %d events, want 50 (two generations back)", got)
	}
}

// TestRingPruneAndStrays: the ring keeps only the newest K generations,
// ignores stray temp files (a crash between create and rename), and a
// failed write leaves the previous generations untouched.
func TestRingPruneAndStrays(t *testing.T) {
	r := newTestRing(t, 2)
	for i, n := range []int{10, 20, 30, 40} {
		writeGen(t, r, n)
		_ = i
	}
	gens := r.generations()
	if len(gens) != 2 || gens[0] != 2 || gens[1] != 3 {
		t.Fatalf("after prune: generations = %v, want [2 3]", gens)
	}
	// A stray temp file must not confuse recovery.
	if err := os.WriteFile(filepath.Join(r.dir, ".tmp-00000000000000ff"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := newRing(faultinject.OS(), r.dir, 2)
	snap, skipped, err := r2.recover()
	if err != nil || skipped != 0 {
		t.Fatalf("recover with stray temp: (skipped=%d, err=%v)", skipped, err)
	}
	if got := recoveredEvents(t, snap); got != 40 {
		t.Fatalf("recovered at %d events, want 40", got)
	}

	// Disk-full mid-write: the ring is unchanged and still recovers.
	ffs := faultinject.NewFS(faultinject.OS(), faultinject.FSPlan{WriteBudget: 16})
	r3 := newRing(ffs, r.dir, 2)
	if _, _, err := r3.recover(); err != nil {
		t.Fatal(err)
	}
	if err := r3.write(testMonitor(50).Snapshot); err == nil {
		t.Fatal("write through a full disk succeeded")
	}
	r4 := newRing(faultinject.OS(), r.dir, 2)
	snap, skipped, err = r4.recover()
	if err != nil || skipped != 0 {
		t.Fatalf("recover after failed write: (skipped=%d, err=%v)", skipped, err)
	}
	if got := recoveredEvents(t, snap); got != 40 {
		t.Fatalf("failed write damaged the ring: recovered at %d events, want 40", got)
	}
}
