package monitor

// Opening an engine (see "Entry points" in the package doc). Whether a
// Monitor runs sequentially or with sharded back-ends is configuration:
// reports, retention statistics and snapshots are byte-identical either
// way.

import (
	"fmt"

	"localdrf/internal/prog"
)

// Open builds the monitor for a stream with header hdr, with cfg's GC
// interval, predicate and static filter applied. cfg.Shards is clamped
// to the number of nonatomic locations (a back-end with no location to
// own would only replay clock deltas); at most one shard gives a
// sequential monitor, more a sharded one — except under PredShort,
// whose window in the front-end checks every nonatomic access, so a
// short:k monitor always runs sequentially.
func Open(hdr Header, cfg PipelineConfig) *Monitor {
	return newFor(hdr.Threads, hdr.Decls, cfg).open(cfg)
}

// Open resumes the checkpoint as a monitor, with Open's shard clamp:
// above one shard, the restored synchronisation state stays in the
// front-end and every location's race state moves to its back-end — the
// shard count (and batch size, queue depth) need not match whatever
// produced the snapshot. A zero cfg.GCInterval continues with the
// snapshot's recorded GC state (the interval and the position of the
// next sweep — what same-config resume parity needs); a nonzero one
// overrides it, which still preserves the report set. The checkpointed
// predicate is authoritative; cfg's is ignored. Single use: a second
// Open panics.
func (s *Snapshot) Open(cfg PipelineConfig) *Monitor { return s.take().open(cfg) }

// newFor returns a New monitor deciding cfg's predicate.
func newFor(nthreads int, decls []LocDecl, cfg PipelineConfig) *Monitor {
	m := New(nthreads, decls)
	if cfg.Predicate != PredHB {
		m.SetPredicate(cfg.Predicate, cfg.WindowK)
	}
	return m
}

// open is the tail both Opens share: clamp the shards, then configure
// the monitor in place, with back-ends above one shard unless the
// monitor runs PredShort (its back-ends would get no access to check,
// only clock deltas to replay).
func (m *Monitor) open(cfg PipelineConfig) *Monitor {
	cfg.Shards = clampShards(m.decls, cfg.Shards)
	if cfg.Shards > 1 && m.pred != PredShort {
		m.shard(cfg)
	} else {
		m.configure(cfg)
	}
	return m
}

// configure applies cfg's GC interval — zero keeps the monitor's own,
// the default or a restored snapshot's — and its static filter.
func (m *Monitor) configure(cfg PipelineConfig) {
	if cfg.GCInterval > 0 {
		m.SetGCInterval(cfg.GCInterval)
	}
	m.SetStaticFilter(cfg.StaticFilter)
}

// clampShards bounds a requested back-end count by the nonatomic
// location count, and below by 1.
func clampShards(decls []LocDecl, shards int) int {
	na := 0
	for _, d := range decls {
		if d.Kind == prog.NonAtomic {
			na++
		}
	}
	return max(1, min(shards, na))
}

// ResumeAt positions a freshly opened reader where the checkpoint's
// monitoring stopped: the trace must have the snapshot's header, and
// the reader decodes and drops the already-monitored events by count.
// A snapshot holds no trace position, so this one rule resumes it over
// any encoding of the same event stream, binary or text, whichever run
// wrote it.
func (tr *TraceReader) ResumeAt(s *Snapshot) error {
	if !s.hdr.Equal(tr.hdr) {
		return fmt.Errorf("monitor: resume: the trace's header differs from the snapshot's")
	}
	for skip := s.events; skip > 0; skip-- {
		_, ok, err := tr.Next()
		if err != nil {
			return fmt.Errorf("monitor: resume: %w", err)
		}
		if !ok {
			return fmt.Errorf("monitor: resume: the trace ends inside the %d already-monitored events", s.events)
		}
	}
	return nil
}
