package service

// The per-session checkpoint ring: a directory of generation-numbered
// LDCK snapshot files, written crash-safely and recovered newest-first.
//
// Layout (under Config.CheckpointDir):
//
//	<dir>/<session-id>/ck-<generation>.ldck
//
// with <generation> a zero-padded hexadecimal counter, so lexical order
// is generation order. A write goes to ".tmp-<generation>" in the same
// directory, is fsynced, atomically renamed into place, and the
// directory is fsynced — a crash at ANY point leaves either the old
// ring intact (temp file never renamed; recovery ignores dot-prefixed
// names) or the new entry fully present. The newest ringSize entries
// are kept; older generations are pruned after each successful write.
//
// Recovery walks the generations newest-first and returns the first one
// whose snapshot decodes — the LDCK codec validates every field, so a
// torn, truncated or bit-flipped file fails closed and recovery falls
// back one generation at a time. An empty or absent ring recovers to
// "no state" (the session restarts from event 0, which is correct:
// the client replays its stream from byte 0 anyway).

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"localdrf/internal/faultinject"
	"localdrf/internal/monitor"
)

const ckSuffix = ".ldck"

// ckName renders the file name of one ring generation.
func ckName(gen uint64) string {
	return fmt.Sprintf("ck-%016x%s", gen, ckSuffix)
}

// ckGen parses a ring entry name; ok=false for anything else (temp
// files, strays).
func ckGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "ck-") || !strings.HasSuffix(name, ckSuffix) {
		return 0, false
	}
	gen, err := strconv.ParseUint(name[3:len(name)-len(ckSuffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// ckRing is one session's checkpoint ring. Methods are called from the
// single goroutine attached to the session.
type ckRing struct {
	fs   faultinject.FS
	dir  string
	size int
	gen  uint64 // next generation to write
}

func newRing(fs faultinject.FS, dir string, size int) *ckRing {
	if size < 1 {
		size = 1
	}
	return &ckRing{fs: fs, dir: dir, size: size}
}

// generations lists the ring's entry generations, ascending.
func (r *ckRing) generations() []uint64 {
	entries, err := r.fs.ReadDir(r.dir)
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, e := range entries {
		if gen, ok := ckGen(e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

// recover walks the ring newest-first and returns the first decodable
// snapshot (nil if the ring is empty or nothing decodes) plus the
// number of entries skipped as corrupt. It positions r.gen past every
// generation it saw, so the next write never collides with a stray.
func (r *ckRing) recover() (snap *monitor.Snapshot, skipped int, err error) {
	gens := r.generations()
	if len(gens) == 0 {
		return nil, 0, nil
	}
	r.gen = gens[len(gens)-1] + 1
	var lastErr error
	for i := len(gens) - 1; i >= 0; i-- {
		f, err := r.fs.Open(filepath.Join(r.dir, ckName(gens[i])))
		if err != nil {
			skipped++
			lastErr = err
			continue
		}
		snap, err := monitor.ReadSnapshot(f)
		f.Close()
		if err != nil {
			// Torn or corrupt entry: fall back one generation.
			skipped++
			lastErr = err
			continue
		}
		return snap, skipped, nil
	}
	return nil, skipped, fmt.Errorf("service: no decodable checkpoint among %d ring entries (last: %w)", len(gens), lastErr)
}

// write persists one snapshot as the next ring generation: temp file,
// fsync, atomic rename, directory fsync, prune. On any error the temp
// file is removed (best effort) and the ring is unchanged — the
// previous generations remain the recovery points.
func (r *ckRing) write(snap func(w io.Writer) error) error {
	if err := r.fs.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(r.dir, fmt.Sprintf(".tmp-%016x", r.gen))
	f, err := r.fs.Create(tmp)
	if err != nil {
		return err
	}
	err = snap(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		r.fs.Remove(tmp)
		return err
	}
	if err := r.fs.Rename(tmp, filepath.Join(r.dir, ckName(r.gen))); err != nil {
		r.fs.Remove(tmp)
		return err
	}
	if err := r.fs.SyncDir(r.dir); err != nil {
		return err
	}
	r.gen++
	r.prune()
	return nil
}

// prune removes all but the newest size generations (best effort).
func (r *ckRing) prune() {
	gens := r.generations()
	for len(gens) > r.size {
		r.fs.Remove(filepath.Join(r.dir, ckName(gens[0])))
		gens = gens[1:]
	}
}

// destroy removes the session's ring directory — called on clean
// session completion, when the durable state has served its purpose.
func (r *ckRing) destroy() {
	r.fs.RemoveAll(r.dir)
}
