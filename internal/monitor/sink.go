package monitor

// The monitoring seam (see "Entry points" in the package doc). Whether
// the engine behind a Sink is one Monitor or a sharded Pipeline is
// configuration: reports, retention statistics and snapshots are
// byte-identical either way.

import (
	"fmt"
	"io"

	"localdrf/internal/obs"
	"localdrf/internal/prog"
	"localdrf/internal/race"
)

// Sink is the method set Monitor and Pipeline share. Feed it the stream
// in trace order from one goroutine (Step, StepBatch), then call Finish
// for the canonically sorted report set, or Abort to drop it.
type Sink interface {
	Step(Event)
	StepBatch([]Event)
	// Finish returns the deduplicated reports. The sink must not be fed
	// afterwards.
	Finish() []race.Report
	// Abort tears the sink down without producing reports (see
	// Pipeline.Abort for the concurrency contract).
	Abort()
	Events() uint64
	RAStats() RAStats
	Predicate() Predicate
	WindowK() int
	WindowStats() WindowStats
	Snapshot(io.Writer) error
	Obs() *obs.Registry
	Stats() obs.Snapshot
	// snapshotAt writes the snapshot with an optional trace-reader
	// continuation; TraceReader.Checkpoint is its one outside caller.
	snapshotAt(io.Writer, *readerCk) error
}

// Finish returns Reports: for a sequential monitor there is nothing to
// drain.
func (m *Monitor) Finish() []race.Report { return m.Reports() }

// Abort is a no-op: a sequential monitor owns no goroutines.
func (m *Monitor) Abort() {}

// Open builds the sink for a stream with header hdr. cfg.Shards is
// clamped to the number of nonatomic locations (a back-end with no
// location to own would only replay clock deltas); at most one shard
// gives a sequential Monitor with cfg's GC interval, predicate and
// static filter applied, more give a Pipeline.
func Open(hdr Header, cfg PipelineConfig) Sink {
	m := New(hdr.Threads, hdr.Decls)
	if cfg.Predicate != PredHB {
		m.SetPredicate(cfg.Predicate, cfg.WindowK)
	}
	return open(m, cfg)
}

// Open resumes the checkpoint as a sink, with Open's shard clamp: a
// restored Monitor at most one shard; above, a Pipeline whose front-end
// is the restored synchronisation state and whose back-ends receive
// every location's race state — the shard count (and batch size, queue
// depth) need not match whatever produced the snapshot. A zero
// cfg.GCInterval continues with the snapshot's recorded GC state (the
// interval and the position of the next sweep — what same-config resume
// parity needs); a nonzero one overrides it, which still preserves the
// report set. The checkpointed predicate is authoritative; cfg's is
// ignored. Single use: a second Open panics.
func (s *Snapshot) Open(cfg PipelineConfig) Sink { return open(s.take(), cfg) }

// open is the tail both Opens share: clamp the shards, then return the
// configured monitor, or a pipeline with the monitor as its front-end.
func open(m *Monitor, cfg PipelineConfig) Sink {
	cfg.Shards = clampShards(m.decls, cfg.Shards)
	if cfg.Shards > 1 {
		return newPipelineFrom(m, cfg)
	}
	m.configure(cfg)
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
// monitoring stopped: the trace must have the snapshot's header; then
// the reader seeks to the recorded byte offset (a binary trace's
// Checkpoint), or, for a snapshot without a reader continuation (a text
// trace's Checkpoint, or Snapshot), decodes and drops the
// already-monitored events by count (so the trace must be the same event
// stream). Either way the reader then counts those events as delivered.
func (tr *TraceReader) ResumeAt(s *Snapshot) error {
	if !s.hdr.Equal(tr.hdr) {
		return fmt.Errorf("monitor: resume: the trace's header differs from the snapshot's")
	}
	if tr.delivered > 0 {
		return fmt.Errorf("monitor: resume: the reader has already decoded events")
	}
	if s.rck != nil {
		if err := tr.resume(s.rck); err != nil {
			return err
		}
		tr.delivered = s.events
		return nil
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
