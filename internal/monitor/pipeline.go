package monitor

// The sharded monitor: one synchronisation front-end, many
// location-partitioned race back-ends.
//
// The race checks of defs. 9/10 are independent per nonatomic location,
// but the happens-before clocks of def. 8 depend on *all*
// synchronisation events. The previous parallel mode resolved that
// tension by replaying the whole stream once per shard — O(shards ×
// events) total work, so parallelism made monitoring slower below ~6
// cores. A sharded monitor resolves it by splitting the two concerns:
//
//   - The front-end is the Monitor itself (the caller's goroutine):
//     Monitor.Step consumes the stream exactly once. It performs every
//     clock operation: program-order increments, SC-atomic and RA
//     reads-from joins, RA message publication, windowed RA GC, and
//     halt bookkeeping. Nonatomic accesses need no clock work beyond
//     the program-order increment — the front-end only *routes* them
//     (Monitor.p, the back-end set, is the hook; a sequential monitor's
//     is nil).
//
//   - Each back-end owns the nonatomic locations with loc % shards ==
//     its index, and receives exactly two kinds of records, in stream
//     order: its own shard's nonatomic accesses (thread, location, kind,
//     and the access's own clock component), and the compact clock-delta
//     side channel — whenever a join raises entries of some thread's
//     clock, the changed (thread, index, value) triples are broadcast,
//     and each GC sweep broadcasts the refreshed minimum frontier.
//     Replaying the deltas keeps a back-end's mirror of the clocks
//     exactly equal to the front-end's at every routed access, so the
//     checker (the same code a sequential Monitor runs) makes
//     bit-identical decisions.
//
// The methods whose behaviour depends on the mode branch once on
// Monitor.p: Finish drains the back-ends, Abort tears them down, and
// the readers of race state (Reports, RaceCount, Stats, Snapshot,
// BackendLoads) settle them first.
//
// Records move in batches over bounded SPSC rings (engine.BatchQueue,
// one per back-end, plus a reverse ring recycling spent buffers), so the
// hot path costs an append — no per-event channel send, no event-slice
// materialisation, natural backpressure, O(shards × batch × depth) fixed
// buffer memory. Total work is O(events) front-end + O(events/shards ×
// check cost + sync deltas) per back-end, instead of O(shards × events).
//
// Determinism: the merged report set is byte-identical to the sequential
// monitor's at any shard count, batch size and GC interval. Each
// location's accesses reach its owning back-end in stream order with
// clock values equal to the sequential monitor's (joins only change the
// joining thread's entries, which the delta channel replays in stream
// position; an access's own component rides on its record), and the
// dedup bitmasks partition by location, so the union of the back-end
// report sets is exactly the sequential set.

import (
	"sync"
	"sync/atomic"
	"time"

	"localdrf/internal/engine"
	"localdrf/internal/obs"
	"localdrf/internal/race"
)

// Default back-end tuning. A batch of 4096 records (64 KiB) amortises
// the ring hand-off to a fraction of a nanosecond per event; a depth of
// 8 batches per back-end lets the front-end run ahead of a momentarily
// stalled back-end without unbounded buffering.
const (
	defaultPipelineBatch = 4096
	defaultPipelineDepth = 8
)

// PipelineConfig configures an engine (Open, Snapshot.Open,
// NewPipeline). The zero value means: sequential (NewPipeline: one
// back-end), default batch size and queue depth, default GC interval.
type PipelineConfig struct {
	// Shards is the number of race back-ends (location l is owned by
	// back-end l % Shards). Open clamps it to the nonatomic location
	// count and runs sequentially at one or fewer; NewPipeline starts at
	// least one.
	Shards int
	// BatchSize is the number of records per flushed batch.
	BatchSize int
	// QueueDepth is the number of batches buffered per back-end before
	// the front-end blocks (backpressure).
	QueueDepth int
	// GCInterval is the front-end's RA GC interval in events (0 = the
	// monitor default). The report set is identical at any interval.
	GCInterval uint64
	// StaticFilter, when non-nil, marks nonatomic locations a sound
	// static certificate (internal/staticrace) proved race-free; their
	// accesses are not routed to the back-ends at all (see
	// staticfilter.go for the soundness contract). Length must equal the
	// declaration count. Reports and RAStats are identical with or
	// without a sound filter.
	StaticFilter []bool
	// Predicate selects the race definition (see Monitor.SetPredicate
	// and predict.go): PredHB (default), PredSyncP, or PredShort with
	// WindowK. Under PredShort nonatomic accesses are checked against
	// the front-end's bounded candidate window instead of being routed
	// to the back-ends (the distance bound needs the global event index,
	// which only the front-end has). Ignored by Snapshot.Open — the
	// checkpointed predicate is authoritative on resume.
	Predicate Predicate
	// WindowK is the event-distance bound of PredShort (ignored for the
	// other predicates).
	WindowK int
}

func (cfg PipelineConfig) withDefaults() PipelineConfig {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = defaultPipelineBatch
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = defaultPipelineDepth
	}
	return cfg
}

// Record op codes, packed into pipeRec.tk's low 3 bits. The NA access
// ops deliberately equal the Kind values so routing is a mask, not a
// translation.
const (
	opReadNA  = uint32(ReadNA)  // NA read: loc, thread, aux = own clock
	opWriteNA = uint32(WriteNA) // NA write: likewise
	opClock   = uint32(2)       // clock delta: clocks[thread][loc] = aux
	opMin     = uint32(3)       // frontier: minClock[loc] = aux
	opCompact = uint32(4)       // GC barrier: demote collapsible vectors
)

// pipeRec is one routed record: 16 bytes, so a 4096-record batch is one
// 64 KiB block scanned linearly by the back-end.
type pipeRec struct {
	aux uint64 // NA access: the thread's own clock component; else value
	loc int32  // NA access: the owner's dense location index; clock/min: the clock index updated
	tk  uint32 // thread<<3 | op
}

// lane is the front-end's buffered view of one back-end's input ring.
type lane struct {
	q    *engine.BatchQueue[[]pipeRec]
	free *engine.BatchQueue[[]pipeRec]
	cur  []pipeRec
	size int
	hist *obs.Hist // flushed batch sizes (its count is the batch count)
}

func (ln *lane) put(r pipeRec) {
	ln.cur = append(ln.cur, r)
	if len(ln.cur) >= ln.size {
		ln.flush()
	}
}

func (ln *lane) flush() {
	if len(ln.cur) == 0 {
		return
	}
	ln.hist.Observe(uint64(len(ln.cur)))
	ln.q.Put(ln.cur)
	b, ok := ln.free.Get()
	if !ok {
		// Free ring closed (cannot happen before Finish) — allocate.
		b = make([]pipeRec, 0, ln.size)
	}
	ln.cur = b[:0]
}

// backend consumes one ring of record batches with its own checker over
// a mirrored copy of the thread clocks. The checker's na array holds
// only the back-end's owned locations, densely (checker index
// loc / shards — the front-end routes record loc fields pre-translated),
// so per-location state costs O(locations) across ALL back-ends, not
// O(shards × locations).
type backend struct {
	ck   checker
	in   *engine.BatchQueue[[]pipeRec]
	free *engine.BatchQueue[[]pipeRec]
	// ack carries the quiesce barrier's acknowledgements: the front-end
	// enqueues a nil batch after flushing, and the back-end answers once
	// every earlier record has been applied (see backendSet.quiesce).
	ack chan struct{}
	// id/po: this back-end's slots in the pipeline.* metric vectors. The
	// applied-record count lives ONLY in the published cell (no shadow
	// field): the run loop tallies a plain local and publishes it at
	// batch boundaries — and, crucially, at the quiesce barrier before
	// the ack, so BackendLoads reads exact values behind a quiesce.
	id int
	po *pipeCells
}

func (b *backend) run() {
	ck := &b.ck
	var applied uint64
	publish := func() {
		b.po.backRecs.Store(b.id, applied)
		b.po.backEsc.Store(b.id, uint64(ck.escalatedSides))
		b.po.backRaces.Store(b.id, uint64(ck.races))
	}
	defer publish()
	for {
		batch, ok := b.in.Get()
		if !ok {
			return
		}
		if batch == nil {
			// Quiesce barrier: everything enqueued before it has been
			// applied to this back-end's state.
			publish()
			b.ack <- struct{}{}
			continue
		}
		for i := range batch {
			r := &batch[i]
			t := int32(r.tk >> 3)
			switch r.tk & 7 {
			case opReadNA, opWriteNA:
				c := ck.clocks[t]
				c[t] = r.aux
				ck.access(&ck.na[r.loc], t, c, r.tk&7 == opWriteNA)
				applied++
			case opClock:
				ck.clocks[t][r.loc] = r.aux
			case opMin:
				ck.minClock[r.loc] = r.aux
			default: // opCompact
				// GC barrier marker, sent after the frontier refresh: demote
				// collapsible vectors at the same stream position the
				// sequential monitor does.
				ck.compactAll()
			}
		}
		publish()
		b.free.Put(batch)
	}
}

// Pipeline is the name NewPipeline's callers use for a sharded monitor.
// It is Monitor itself: one engine type, whose back-ends are a matter of
// configuration.
type Pipeline = Monitor

// backendSet is what a sharded monitor adds to a sequential one: the
// location partition, one lane and back-end per shard, and the teardown
// and telemetry state. Monitor.p holds it, nil when sequential.
type backendSet struct {
	// owner[loc] = loc % shards is the owning back-end and dense[loc] =
	// loc / shards the index in its checker, tabulated so routing costs
	// two loads instead of two divisions.
	owner []int32
	dense []int32
	lanes []*lane
	backs []*backend
	wg    sync.WaitGroup
	// done is set by Finish; dropped records that Finish found the set
	// aborted, so no coherent report set exists.
	done    bool
	dropped bool
	// Teardown state (see the contract on Monitor.Abort). aborted is the
	// single CAS that elects the tearing-down goroutine; tornDown is
	// closed once every back-end has exited, so late Abort calls can wait
	// instead of double-closing. ackWait[s] records, per quiesce, whether
	// lane s accepted the nil barrier batch — an abort can close the
	// rings between the Put and the ack, and the barrier must then not
	// wait for acknowledgements that will never come.
	aborted  atomic.Bool
	tornDown chan struct{}
	ackWait  []bool
	// Observability (obs.go): front-end-owned plain tallies, published
	// into po's cells at GC sweeps / Stats.
	po          pipeCells
	routed      uint64 // NA records routed
	deltaRecs   uint64 // opClock records enqueued across all lanes
	minRecsSent uint64 // opMin + opCompact records enqueued
}

// NewPipeline returns a sharded monitor for a stream of nthreads
// threads over the given locations: a New monitor deciding cfg's
// predicate, with cfg.Shards race back-ends (at least one; unlike Open,
// the count is not clamped).
func NewPipeline(nthreads int, decls []LocDecl, cfg PipelineConfig) *Pipeline {
	m := newFor(nthreads, decls, cfg)
	m.shard(cfg)
	return m
}

// shard applies cfg's defaults, GC interval and static filter, and
// starts the back-ends around the monitor — a fresh one or a restored
// one — which stays the front-end. Its per-location race state moves
// out to the owning back-ends and its clocks seed every back-end mirror.
func (m *Monitor) shard(cfg PipelineConfig) {
	cfg = cfg.withDefaults()
	m.configure(cfg)
	nthreads, decls := m.nthreads, m.decls
	p := &backendSet{
		owner:    make([]int32, len(decls)),
		dense:    make([]int32, len(decls)),
		lanes:    make([]*lane, cfg.Shards),
		backs:    make([]*backend, cfg.Shards),
		tornDown: make(chan struct{}),
		ackWait:  make([]bool, cfg.Shards),
	}
	p.po = newPipeCells(m.reg, cfg.Shards)
	for l := range p.owner {
		p.owner[l] = int32(l % cfg.Shards)
		p.dense[l] = int32(l / cfg.Shards)
	}
	for s := 0; s < cfg.Shards; s++ {
		free := engine.NewBatchQueue[[]pipeRec](cfg.QueueDepth + 2)
		for i := 0; i < cfg.QueueDepth+2; i++ {
			free.Put(make([]pipeRec, 0, cfg.BatchSize))
		}
		ln := &lane{
			q:    engine.NewBatchQueue[[]pipeRec](cfg.QueueDepth),
			free: free,
			size: cfg.BatchSize,
			hist: p.po.batchHist,
		}
		ln.cur, _ = free.Get()
		p.lanes[s] = ln
		// Mirrors start equal to the front-end's clocks — all zeros for a
		// fresh monitor, the checkpointed clocks for a restored one (the
		// same values a backlog of delta records would have replayed).
		clocks := make([][]uint64, nthreads)
		minClock := make([]uint64, nthreads)
		for t := range clocks {
			clocks[t] = make([]uint64, nthreads)
			copy(clocks[t], m.clocks[t])
		}
		copy(minClock, m.minClock)
		// Owned locations of shard s: s, s+shards, s+2·shards, …
		owned := 0
		if s < len(decls) {
			owned = (len(decls) - s + cfg.Shards - 1) / cfg.Shards
		}
		p.backs[s] = &backend{
			ck:   newChecker(nthreads, owned, clocks, minClock),
			in:   ln.q,
			free: free,
			ack:  make(chan struct{}, 1),
			id:   s,
			po:   &p.po,
		}
	}
	// Move each location's race-checking state to the back-end owning it
	// (its dense slot), crediting the races its dedup set already
	// records, and empty the front-end's checker: the sync half must not
	// retain it.
	for l := range m.ck.na {
		b := p.backs[p.owner[l]]
		ls := m.ck.na[l]
		b.ck.na[p.dense[l]] = ls
		b.ck.races += ls.reported.races()
		for _, sd := range ls.sides() {
			if sd.t == escalated {
				b.ck.escalatedSides++
			}
		}
	}
	m.ck = checker{}
	m.p = p
	for _, b := range p.backs {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			b.run()
		}()
	}
}

// route sends a nonatomic access, with its thread's own clock component,
// to the back-end owning its location.
func (p *backendSet) route(e Event, own uint64) {
	p.routed++
	p.lanes[p.owner[e.Loc]].put(pipeRec{
		aux: own,
		loc: p.dense[e.Loc], // the back-end's own dense index
		tk:  uint32(e.Thread)<<3 | uint32(e.Kind),
	})
}

// delta sends one clock entry a join raised, clocks[t][u] = v, to every
// back-end.
func (p *backendSet) delta(t int32, u int, v uint64) {
	r := pipeRec{aux: v, loc: int32(u), tk: uint32(t)<<3 | opClock}
	for _, ln := range p.lanes {
		ln.put(r)
	}
	p.deltaRecs += uint64(len(p.lanes))
}

// barrier follows every front-end GC sweep. It sends the refreshed
// minimum frontier to every back-end — the epoch-overwrite criterion
// must flip at the same stream position everywhere — followed by the
// GC-barrier marker that triggers the back-ends' compaction sweep over
// the completed frontier.
func (p *backendSet) barrier(minClock []uint64) {
	for u, v := range minClock {
		r := pipeRec{aux: v, loc: int32(u), tk: opMin}
		for _, ln := range p.lanes {
			ln.put(r)
		}
	}
	for _, ln := range p.lanes {
		ln.put(pipeRec{tk: opCompact})
	}
	p.minRecsSent += uint64(len(minClock)+1) * uint64(len(p.lanes))
}

// quiesce drains the back-ends without ending them: every record routed
// so far is applied before this returns, and feeding may continue after.
// The barrier is a nil batch through each lane's ring (the flush path
// never emits one), acknowledged by the back-end once everything before
// it has been applied. A concurrent Abort closes the rings; a Put that
// observed the close returns false and the back-end will never see that
// barrier, so the barrier only waits on acks whose Put succeeded (a
// successful Put is always drained and acknowledged — Get keeps
// delivering queued items after Close).
func (p *backendSet) quiesce() {
	start := time.Now()
	for s, ln := range p.lanes {
		ln.flush()
		p.ackWait[s] = ln.q.Put(nil)
	}
	for s, b := range p.backs {
		if p.ackWait[s] {
			<-b.ack
		}
	}
	p.po.quiesces.Add(1)
	p.po.quiesceNs.Observe(uint64(time.Since(start)))
}

// settle makes the back-ends' checker state safe to read from the
// feeding goroutine: a live set is quiesced, and an aborted one is
// waited out until every back-end has exited. A sequential or finished
// monitor has nothing to settle.
func (m *Monitor) settle() {
	p := m.p
	if p == nil || p.done {
		return
	}
	if !p.aborted.Load() {
		p.quiesce()
	}
	if p.aborted.Load() {
		<-p.tornDown
	}
}

// Finish returns the final, canonically sorted report set. A sharded
// monitor first flushes the remaining batches and waits for its
// back-ends to drain; after an Abort it returns nil. Idempotent; the
// monitor must not be fed afterwards.
func (m *Monitor) Finish() []race.Report {
	if p := m.p; p != nil && !p.done {
		p.done = true
		if p.aborted.Load() {
			// An abort dropped in-flight batches; there is no coherent
			// report set to merge.
			<-p.tornDown
			p.dropped = true
		} else {
			for _, ln := range p.lanes {
				ln.flush()
				ln.q.Close()
			}
			p.wg.Wait()
		}
	}
	if m.p != nil && m.p.dropped {
		return nil
	}
	return m.Reports()
}

// Abort tears a sharded monitor's back-ends down mid-stream without
// draining: the rings are closed, in-flight batches are dropped, and
// every back-end goroutine has exited when Abort returns. On a
// sequential monitor, which owns no goroutines, it is a no-op.
//
// Teardown contract:
//
//   - Abort is idempotent and safe to call from any goroutine, any
//     number of times, concurrently with itself: one caller wins a CAS
//     and tears the rings down; every other caller blocks until the
//     back-ends have exited, so all Abort calls return with the same
//     postcondition (no back-end goroutines remain).
//   - Abort is safe while the feeder is blocked in Step/StepBatch on a
//     full ring (the blocked Put unblocks and its records are
//     discarded), and while the feeder is inside a quiesce barrier
//     (Snapshot, Stats, Reports, BackendLoads, …): the barrier only
//     waits for acknowledgements whose nil batch was accepted before
//     the rings closed, so it cannot wait forever.
//   - Abort is safe after Snapshot and after Finish have returned
//     (after Finish it is a no-op: the rings are already closed —
//     Close is idempotent — and the WaitGroup is settled).
//   - After an abort: Finish returns nil (in-flight batches were
//     dropped, so no coherent report set exists), Snapshot returns an
//     error, and further Steps are silently discarded. Events() remains
//     readable from the feeder; the race readers (Reports, RaceCount,
//     Stats, BackendLoads) wait for the teardown and read whatever the
//     back-ends had applied.
//   - The one prohibited overlap: Abort must not race with a
//     *concurrently executing* Finish or Snapshot — those drain state
//     that Abort is tearing down, and the snapshot bytes/report set
//     would be torn. Call sites that can race an abort against a
//     drain (e.g. a server tearing down a session) must order the two
//     themselves; calling Abort once either has returned is always
//     safe.
func (m *Monitor) Abort() {
	p := m.p
	if p == nil {
		return
	}
	if !p.aborted.CompareAndSwap(false, true) {
		<-p.tornDown
		return
	}
	for _, ln := range p.lanes {
		ln.q.Close()
		ln.free.Close()
	}
	p.wg.Wait()
	close(p.tornDown)
}

// Shards returns the number of race back-ends the monitor runs: 1 for
// a sequential monitor (short:k's included, at any requested count),
// else the count it was opened with, after Open's clamp.
func (m *Monitor) Shards() int {
	if m.p == nil {
		return 1
	}
	return len(m.p.backs)
}

// BackendLoads returns the number of nonatomic access records each
// back-end has applied so far — the balance of the static loc-mod-shards
// split — or nil for a sequential monitor. It settles a live set first
// so in-flight batches are counted; the values are read from the
// pipeline.backend_records metric vector, which each back-end publishes
// exactly at the barrier.
func (m *Monitor) BackendLoads() []uint64 {
	if m.p == nil {
		return nil
	}
	m.settle()
	return m.p.po.backRecs.Values(nil)
}
