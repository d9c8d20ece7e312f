// Package monitor is an online, single-pass data-race monitor over a
// *single observed trace* — the streaming counterpart of the exhaustive
// trace enumeration in internal/race.
//
// The exhaustive checkers decide the paper's definitions by enumerating
// every trace of a program, which caps them at litmus-sized inputs. This
// package makes the same definitions executable at scale: given one trace
// of machine transitions (millions of events, e.g. produced by
// internal/schedgen or ingested from the raw-trace wire format of
// wire.go), it computes the happens-before relation of def. 8
// incrementally with vector clocks and reports every conflicting
// unordered pair (defs. 9/10), deduplicated exactly as
// race.Races/race.FindRaces deduplicate — by location, thread pair and
// access kinds.
//
// # Algorithm
//
// Each thread t carries a vector clock C_t with C_t[u] = the largest
// event index of thread u that happens-before t's next event. The three
// synchronisation edge families of def. 8 become clock joins:
//
//   - program order: C_t[t] is incremented at every event of t;
//   - SC atomics: each atomic location A carries the released clock L_A
//     of its latest write (which transitively includes all earlier
//     writes); an atomic write joins L_A into C_t and stores C_t back, an
//     atomic read only joins (def. 8 orders atomic writes before later
//     reads and writes, but reads before nothing);
//   - release-acquire: each RA message (timestamp) carries the clock its
//     writer published; an RA read joins the clock of exactly the message
//     it reads from (same location, same timestamp — the §10 reads-from
//     edge), and RA writes synchronise with nothing else.
//
// Nonatomic accesses induce no edges. For each nonatomic location the
// monitor keeps the last read and last write per thread: access j by
// thread t races with some earlier access of thread u iff it races with
// u's *latest* earlier access of that kind (program order makes earlier
// ones ordered whenever the latest is), so per-thread last-access records
// identify the full deduplicated report set, not merely race existence.
// That per-location check logic lives in the checker type, which is
// shared verbatim between a sequential Monitor and a sharded one's
// race back-ends (pipeline.go) — the two paths cannot
// diverge, because they run the same code.
//
// # Bounded memory: epochs and windowed RA GC
//
// Two representations keep the live state bounded on long streams.
//
// Epochs: a nonatomic location starts in the FastTrack-style epoch
// representation — its last write (and last read) is a single
// thread@clock word, allocation-free, covering the overwhelmingly common
// case of a location accessed by one thread at a time. The epoch is
// *escalated* to a full per-thread vector only when a second thread
// accesses the location while the previous epoch is still racy-reachable
// (some thread's frontier has not yet passed it). When the cached minimum
// frontier proves the old epoch dead — every thread already
// happens-after it, so it can never appear in another race — the epoch is
// overwritten in place instead, and ordered cross-thread handoffs stay in
// the compact form forever. Escalation preserves the live entries, so the
// report set is bit-for-bit the one the full-vector monitor computes.
//
// Windowed RA GC: release-acquire messages are retained only while some
// thread could still gain an edge from them. The monitor periodically
// (every GC interval; see SetGCInterval) recomputes the pointwise
// minimum of all thread clocks and deletes every message whose writer
// event index lies below that frontier: by the vector-clock
// characterisation of happens-before, once min_u C_u[w] ≥ k every current
// and future clock already dominates the clock published by thread w's
// k-th event, so the reads-from join is a no-op and dropping the message
// cannot change any report. The messages of each location sit in a flat
// store (rastore.go): a dense slice of live (timestamp, writer) entries,
// their clocks in one arena of nthreads words per slot, and an
// open-addressed timestamp index whose hash is keyed per process, so a
// peer choosing timestamps cannot build collision chains. Publishing
// copies the writer's clock into the arena (in place when the timestamp
// is already live), so steady state allocates nothing; a sweep compacts
// each non-empty store in one pass and rebuilds its small index.
// Retention statistics (live, peak, collected) are exposed via RAStats.
// Under the program semantics' freshness constraint threads read
// monotonically newer messages, so the live set tracks the spread
// between the fastest and slowest thread — a window — rather than the
// trace length. The criterion
// is exact, not heuristic, with one escape hatch for its flip side: a
// declared thread that goes silent would hold the frontier down forever
// (it could still legitimately read any message it has not passed), so
// the event stream may carry an explicit thread-retirement event
// (KindHalt) after which the thread's frontier entry is treated as +∞ —
// a halted thread performs no further accesses, so no message needs to
// be retained on its behalf and no future race can involve it as the
// later access.
//
// Complexity: O(events × threads) time worst case, O(1) amortised per
// event on single-thread and ordered-handoff locations. Space is
// O(locations + threads²) until histories actually race or interleave:
// per-location vectors (O(threads)) and report bitmasks (O(threads²))
// are allocated lazily on first escalation / first race, and live RA
// messages are windowed as above instead of accumulating O(messages).
//
// Because the live state is bounded, it is also cheaply serialisable:
// the snapshot codec (snapshot.go) checkpoints a monitor — sharded
// ones after a quiesce — at any event index, and ReadSnapshot then
// Snapshot.Open resumes it with byte-identical reports and retention
// statistics. The snapshot is the state alone, with no trace position:
// TraceReader.ResumeAt resumes interrupted trace ingestion by skipping
// the events the snapshot covers.
//
// # Predictive detection
//
// The happens-before predicate above is sound but tied to the observed
// interleaving: a race the schedule happened to order through an
// incidental sync edge goes unreported. SetPredicate switches the
// monitor (PipelineConfig.Predicate when opening one) to predictive
// predicates that also report races exposed by feasible reorderings of
// the observed trace:
//
//   - PredSyncP decides sync-preserving races: the ordering relation
//     keeps only program order and the reads-from joins, dropping the
//     write-side release join, so any pair orderable only through an
//     incidental release chain is reported. Every report corresponds
//     to a sync-preserving correct reordering of the trace, and the
//     set is a superset of the PredHB set on every trace.
//   - PredShort (distance k) restricts PredSyncP to access pairs at
//     most k events apart in the observed trace, replacing per-thread
//     last-access records with a per-location candidate window of at
//     most k live entries — bounded memory regardless of how many
//     threads touch a location, at the price of missing long-range
//     pairs. Its reports are a subset of PredSyncP's; window telemetry
//     (live, peak, pruned) is exposed via WindowStats and published to
//     the obs registry as predict.* gauges at GC barriers.
//
// The predicates run through the same checker seam, sharded back-ends
// and snapshot codec as PredHB — reports are identical at
// any shard count, and a checkpoint records its predicate and window
// state; the recorded predicate is authoritative on restore. See
// predict.go for the construction and internal/predict for the
// reference decider and the flag syntax ("hb", "syncp", "short:k")
// racemon exposes.
//
// # Entry points
//
// Monitor is the one engine type, and New its one constructor: every
// engine starts as a New monitor (a restored checkpoint is a New
// monitor with its state decoded in). A sharded monitor is a Monitor
// with race back-ends attached; its Step is the same Step — one
// per-event path for both modes.
//
// Open(Header, PipelineConfig) builds the monitor for a stream. At most
// one shard gives a sequential monitor, more a sharded one; the
// config's GC interval, predicate and static filter apply either way.
// Checkpointing is one call, Monitor.Snapshot(w), whatever fed the
// monitor; resuming is one path: ReadSnapshot, then TraceReader.ResumeAt
// to skip a reopened trace (either format) past the events the
// checkpoint covers, then Snapshot.Open, which builds the monitor as
// Open does. racemon and racemond build their engines through Open,
// and both ingest with one loop: TraceReader.NextBatch, then
// StepBatch. NewPipeline builds a sharded monitor without Open's clamp
// (Pipeline is its alias for Monitor); Table and ReadRaces
// (MonitorReader's loop over a whole trace) are the one-call forms the
// differential tests use.
package monitor

import (
	"math"
	"math/bits"

	"localdrf/internal/obs"
	"localdrf/internal/prog"
	"localdrf/internal/race"
	"localdrf/internal/ts"
)

// Kind classifies an event: the cross product of read/write and the
// location flavour (nonatomic, SC atomic, release-acquire), plus the
// thread-retirement marker.
type Kind uint8

const (
	// ReadNA is a nonatomic read.
	ReadNA Kind = iota
	// WriteNA is a nonatomic write.
	WriteNA
	// ReadAT is an SC-atomic read.
	ReadAT
	// WriteAT is an SC-atomic write.
	WriteAT
	// ReadRA is a release-acquire read.
	ReadRA
	// WriteRA is a release-acquire write.
	WriteRA
	// KindHalt retires a thread: it performs no further events. The
	// monitor then treats the thread's frontier entry as +∞ when
	// computing the windowed-GC minimum, so a finished thread stops
	// pinning the live RA-message window (and dead epochs it has not
	// explicitly passed can be overwritten — it will never be the later
	// access of a race). Halt events are advisory: removing them from a
	// stream never changes the report set, only retention. Event.Loc and
	// Event.Time are ignored.
	KindHalt
)

// IsWrite reports whether the kind is a write.
func (k Kind) IsWrite() bool { return k == WriteNA || k == WriteAT || k == WriteRA }

// Event is one trace transition in streaming form: thread and location as
// dense indices (see Table for the mapping from programs), the access
// kind, and — for release-acquire events only — the message timestamp
// that identifies the reads-from edge.
type Event struct {
	Thread int32
	Loc    int32
	Kind   Kind
	// Time is the RA message timestamp (Read-RA joins the clock of the
	// write with the equal timestamp). Ignored for NA and AT events, and
	// not preserved for them by the wire format.
	Time ts.Time
}

// LocDecl declares one location of the monitored program: its name (used
// in reports) and kind. The slice index is the Event.Loc index.
type LocDecl struct {
	Name prog.Loc
	Kind prog.LocKind
}

// Sentinel values of naState.wT / naState.rT.
const (
	// noEpoch: no live access of that kind yet.
	noEpoch int32 = -1
	// escalated: the per-thread vector (writes/reads) is authoritative.
	escalated int32 = -2
)

// naState is the race-checking state of one nonatomic location. It
// starts in the compact epoch representation (wT/wC, rT/rC) and
// escalates each side independently to a per-thread vector the first
// time two threads' accesses of that kind are simultaneously live.
type naState struct {
	// wT/wC: the thread and clock of the last write while at most one
	// write is live (the epoch). wT is noEpoch before the first write and
	// escalated once writes has been materialised. rT/rC likewise for the
	// last read.
	wT, rT int32
	wC, rC uint64
	// writes[u] / reads[u] hold the event index of thread u's last write /
	// read of this location (0 = none) once escalated. An access by t
	// races with u's last access iff the stored index exceeds C_t[u].
	writes []uint64
	reads  []uint64
	// reported is the location's dedup set, allocated on its first race.
	reported pairSet
	// lastT is the thread of the last access (-1 initially); while the
	// same thread keeps accessing the location, the escalated scans can
	// be skipped once they have come up clean (the vectors cannot have
	// changed and C_t only grows). wClean / rClean record that the last
	// scan of the corresponding vector by lastT found no unordered entry.
	lastT  int32
	wClean bool
	rClean bool
}

// pairSet is one location's dedup set, shared by the HB checker and
// the short:k window: pairSet[u*threads+t] is a 4-bit set of the
// access-kind pairs (earlier kind, later kind) already reported for the
// thread pair (u earlier, t later), bit 2·wi+wj. It is kept as flat
// bitmasks so the racy-location hot path never touches a hash map, and
// is nil until the location's first race.
type pairSet []uint8

// add records a race (u's access earlier, t's later, writes wi and wj)
// in a set over n threads, allocating it on first use, and reports
// whether the pair is new.
func (ps *pairSet) add(n int, u, t int32, wi, wj bool) bool {
	if *ps == nil {
		*ps = make(pairSet, n*n)
	}
	b := uint8(0)
	if wi {
		b |= 2
	}
	if wj {
		b |= 1
	}
	p := &(*ps)[int(u)*n+int(t)]
	if *p&(1<<b) != 0 {
		return false
	}
	*p |= 1 << b
	return true
}

// races returns the number of distinct races the set records.
func (ps pairSet) races() int {
	n := 0
	for _, mask := range ps {
		n += bits.OnesCount8(mask)
	}
	return n
}

// appendReports decodes the set, over n threads, into reports on loc.
func (ps pairSet) appendReports(out []race.Report, n int, loc prog.Loc) []race.Report {
	for i, mask := range ps {
		for b := uint8(0); b < 4; b++ {
			if mask&(1<<b) != 0 {
				out = append(out, race.Report{
					Loc:     loc,
					ThreadI: i / n,
					ThreadJ: i % n,
					WriteI:  b&2 != 0,
					WriteJ:  b&1 != 0,
				})
			}
		}
	}
	return out
}

// defaultGCInterval is how often (in events) the minimum-clock frontier
// is refreshed and dead RA messages are collected. Between refreshes the
// live RA set can grow by at most the interval's worth of writes, so the
// bound is a window, not the trace length; the refresh itself is
// O(threads² + live messages), amortised to a fraction of an event.
const defaultGCInterval = 4096

// checker is the nonatomic race-checking half of the monitor: the
// per-location epoch/vector histories, the dedup bitmasks, and the scan
// logic. It reads — never writes — the thread clocks and the cached
// minimum frontier it is given. A sequential Monitor embeds one checker
// over its own clocks; each back-end of a sharded one owns a checker
// over its mirrored copy of the clocks (updated by the front-end's delta
// side channel), so both execute literally the same checking code and
// produce bit-identical report state.
type checker struct {
	nthreads int
	// clocks[t] is thread t's vector clock as of the current stream
	// position (the Monitor's own clocks, or a back-end's mirror).
	clocks [][]uint64
	// minClock is the cached pointwise minimum of all live thread clocks
	// as of the last GC sweep. Stale entries are only ever too small, so
	// every use (epoch overwrite) stays conservative and safe.
	minClock []uint64
	na       []naState
	races    int
	// escalatedSides counts the per-thread vectors currently escalated
	// (write and read sides counted separately) — compaction telemetry,
	// and the fast-path skip for sweeps with nothing to demote.
	escalatedSides int
	// escalations / demotions count the lifetime transitions behind
	// escalatedSides (plain fields; published via obs.go).
	escalations uint64
	demotions   uint64
}

func newChecker(nthreads int, nlocs int, clocks [][]uint64, minClock []uint64) checker {
	ck := checker{
		nthreads: nthreads,
		clocks:   clocks,
		minClock: minClock,
		na:       make([]naState, nlocs),
	}
	for l := range ck.na {
		// Every location starts in the empty epoch state; the per-thread
		// vectors and dedup bitmasks are allocated only if the location's
		// history ever escalates / races.
		ck.na[l] = naState{wT: noEpoch, rT: noEpoch, lastT: -1}
	}
	return ck
}

// compactAll demotes escalated per-thread vectors back to epochs wherever
// the cached minimum frontier proves at most one entry still live: a
// vector entry w with min_t C_t[u] ≥ w is already ordered before every
// thread's next access, so it can never be the earlier half of a future
// race and dropping it is exact — the same argument that lets epochs be
// overwritten in place. Demotion strictly shrinks the live state (and the
// snapshot encoding, which serialises vectors only while escalated).
// It runs at every GC sweep, in a sequential monitor and a sharded
// one's back-ends alike, so the two paths demote at identical stream positions
// and snapshots stay byte-identical across configurations.
func (ck *checker) compactAll() {
	if ck.escalatedSides == 0 {
		return
	}
	for l := range ck.na {
		ls := &ck.na[l]
		if ls.wT == escalated {
			if t, c, ok := ck.demote(ls.writes); ok {
				ls.wT, ls.wC = t, c
				clear(ls.writes)
				ls.wClean = false
				ck.escalatedSides--
				ck.demotions++
			}
		}
		if ls.rT == escalated {
			if t, c, ok := ck.demote(ls.reads); ok {
				ls.rT, ls.rC = t, c
				clear(ls.reads)
				ls.rClean = false
				ck.escalatedSides--
				ck.demotions++
			}
		}
	}
}

// demote scans one escalated vector for entries still above the minimum
// frontier. With zero live entries the side collapses to the empty epoch
// (noEpoch); with exactly one it collapses to that entry's epoch; with
// two or more the vector must stay (ok=false).
func (ck *checker) demote(v []uint64) (int32, uint64, bool) {
	liveT, liveC := noEpoch, uint64(0)
	for u, w := range v {
		if w > ck.minClock[u] {
			if liveT != noEpoch {
				return 0, 0, false
			}
			liveT, liveC = int32(u), w
		}
	}
	return liveT, liveC, true
}

// Monitor is the streaming race detector, the one engine type. Create
// one with New, Open or Snapshot.Open (NewPipeline for a sharded one),
// feed it events in trace order with Step or StepBatch from one
// goroutine, and collect the deduplicated reports with Reports, or with
// Finish once the stream has ended. A Monitor is not safe for
// concurrent use (Abort and Obs().Snapshot excepted). A sharded monitor
// keeps the synchronisation work and moves the race checking to
// per-location back-end goroutines (pipeline.go); its reports,
// statistics and snapshots equal a sequential monitor's.
type Monitor struct {
	decls    []LocDecl
	nthreads int
	clocks   [][]uint64 // clocks[t][u]: thread t's vector clock
	// ck checks nonatomic races over clocks/minClock. A sharded
	// monitor's checker is empty: its state lives in the back-ends.
	ck checker
	// p is the back-end set of a sharded monitor (pipeline.go), nil for
	// a sequential one. Step consults it at exactly three points:
	// routing a nonatomic access, broadcasting a clock join, and the GC
	// barrier.
	p *backendSet
	// staticSkip, when non-nil, marks nonatomic locations a sound static
	// certificate proved race-free; their events bypass the checker (see
	// staticfilter.go), or, on a sharded monitor, are not routed.
	// Snapshots do not record it.
	staticSkip []bool
	// pred is the race predicate decided (predict.go); windowK and win
	// carry the PredShort distance bound and candidate window. Unlike
	// other configuration, the predicate is serialised into snapshots
	// and the checkpointed value is authoritative on resume.
	pred    Predicate
	windowK uint64
	win     *window
	at      [][]uint64 // released clock L_A per atomic location
	ra      []raStore  // live RA messages per location (rastore.go)
	// minClock caches the pointwise minimum of all live thread clocks as
	// of the last GC sweep (halted threads count as +∞). Stale entries
	// are only ever too small, so every use (RA GC, epoch overwrite)
	// stays conservative and safe.
	minClock []uint64
	// halted[t] is set by a KindHalt event: thread t performs no further
	// events, so the GC frontier treats its clock as +∞.
	halted  []bool
	gcEvery uint64
	nextGC  uint64
	// RA retention statistics (the per-location live counts are the
	// stores' lengths).
	raLive      int
	raPeak      int
	raCollected uint64
	events      uint64
	// Observability (obs.go): plain single-writer tallies, published
	// into reg's atomic cells at GC sweeps and Stats so the hot path
	// never performs an atomic operation.
	reg          *obs.Registry
	mo           monCells
	kinds        [len(kindNames)]uint64
	gcSweeps     uint64
	gcProductive uint64
}

// New returns a monitor for nthreads threads over the given locations.
// It is the one constructor: NewPipeline, Open and snapshot restore all
// start from a New monitor.
func New(nthreads int, decls []LocDecl) *Monitor {
	m := &Monitor{
		decls:    decls,
		nthreads: nthreads,
		clocks:   make([][]uint64, nthreads),
		at:       make([][]uint64, len(decls)),
		ra:       make([]raStore, len(decls)),
		minClock: make([]uint64, nthreads),
		halted:   make([]bool, nthreads),
		gcEvery:  defaultGCInterval,
		nextGC:   defaultGCInterval,
		reg:      obs.NewRegistry(),
	}
	m.mo = newMonCells(m.reg)
	for t := range m.clocks {
		m.clocks[t] = make([]uint64, nthreads)
	}
	for l, d := range decls {
		switch d.Kind {
		case prog.Atomic:
			m.at[l] = make([]uint64, nthreads)
		case prog.ReleaseAcquire:
			m.ra[l].n = nthreads
		}
	}
	m.ck = newChecker(nthreads, len(decls), m.clocks, m.minClock)
	return m
}

// SetGCInterval sets the frontier-refresh / RA-collection period in
// events (0 restores the default). Smaller intervals bound the live RA
// set more tightly at the cost of more frequent O(threads² + live)
// sweeps; the report set is identical at any interval.
func (m *Monitor) SetGCInterval(events uint64) {
	if events == 0 {
		events = defaultGCInterval
	}
	m.gcEvery = events
	m.scheduleGC()
}

// scheduleGC places the next sweep one interval on, saturating, so
// events < nextGC ≤ events + gcEvery holds at any interval (the
// snapshot decoder rejects a schedule outside it).
func (m *Monitor) scheduleGC() {
	m.nextGC = m.events + min(m.gcEvery, math.MaxUint64-m.events)
}

// RAStats is the release-acquire retention telemetry of a monitor run.
type RAStats struct {
	// Live is the number of RA messages currently retained.
	Live int
	// Peak is the high-water mark of Live.
	Peak int
	// Collected is how many dead messages the windowed GC reclaimed.
	Collected uint64
}

// RAStats returns the RA message retention statistics.
func (m *Monitor) RAStats() RAStats {
	return RAStats{Live: m.raLive, Peak: m.raPeak, Collected: m.raCollected}
}

// Events returns the number of events consumed.
func (m *Monitor) Events() uint64 { return m.events }

// EscalatedVectors returns the number of per-thread access vectors
// currently escalated (write and read sides counted separately, across
// all back-ends of a sharded monitor, which settles them first) — the
// live-state pressure the GC-time compaction pass works against.
func (m *Monitor) EscalatedVectors() int {
	m.settle()
	return m.checkSum().escalatedSides
}

// RaceCount returns the number of distinct races reported so far (a
// sharded monitor settles its back-ends first).
func (m *Monitor) RaceCount() int {
	m.settle()
	return m.checkSum().races
}

// Step consumes the next event of the trace. Events must be in bounds
// (thread < nthreads, loc < len(decls), kind matching the declared
// location kind); the wire-format decoder validates ingested traces, and
// Table guarantees it for converted machine traces.
//
// Step is the per-event front-end of both modes: on a sharded monitor
// (m.p != nil) nonatomic accesses are routed to the back-ends instead
// of checked, joins are broadcast as clock deltas, and each GC sweep is
// followed by the back-ends' barrier.
func (m *Monitor) Step(e Event) {
	m.events++
	m.kinds[e.Kind]++
	t := int(e.Thread)
	c := m.clocks[t]
	c[t]++
	if m.events >= m.nextGC {
		m.gc()
	}
	switch e.Kind {
	case ReadNA, WriteNA:
		if m.staticSkip != nil && m.staticSkip[e.Loc] {
			return
		}
		switch {
		case m.win != nil:
			// PredShort: the access is checked in the bounded window at its
			// global stream index (a sharded monitor routes nothing either).
			m.win.access(e.Loc, e.Thread, e.Kind == WriteNA, c, m.events)
		case m.p != nil:
			m.p.route(e, c[t])
		case e.Kind == ReadNA:
			m.ck.readNA(&m.ck.na[e.Loc], e.Thread, c)
		default:
			m.ck.writeNA(&m.ck.na[e.Loc], e.Thread, c)
		}
	case ReadAT:
		m.join(e.Thread, c, m.at[e.Loc])
	case WriteAT:
		la := m.at[e.Loc]
		if m.pred == PredHB {
			// Under the predictive predicates the write still PUBLISHES
			// its clock (the reads-from edge to later readers) but does
			// not join the previous released clock: write→write coherence
			// is exactly what a sync-preserving reordering may flip.
			m.join(e.Thread, c, la)
		}
		copy(la, c)
	case ReadRA:
		if vc := m.ra[e.Loc].lookup(timeKey(e.Time)); vc != nil {
			m.join(e.Thread, c, vc)
		}
	case WriteRA:
		m.publishRA(e.Loc, e.Time, e.Thread, c)
	case KindHalt:
		m.halted[t] = true
	}
}

// StepBatch consumes a batch of events in order — equivalent to calling
// Step on each. It is the ingestion verb every driver runs: pull a batch
// with TraceReader.NextBatch, hand it here, repeat.
func (m *Monitor) StepBatch(events []Event) {
	for i := range events {
		m.Step(events[i])
	}
}

// join merges vc into thread t's clock c pointwise (c ⊔= vc). On a
// sharded monitor each raised entry is also sent to the back-ends'
// clock mirrors, in stream position.
func (m *Monitor) join(t int32, c, vc []uint64) {
	for u, v := range vc {
		if v > c[u] {
			c[u] = v
			if m.p != nil {
				m.p.delta(t, u, v)
			}
		}
	}
}

// publishRA copies the writer's clock into the location's store as a
// retained RA message (overwriting a live message of the same timestamp)
// — the WriteRA effect.
func (m *Monitor) publishRA(loc int32, tm ts.Time, writer int32, c []uint64) {
	if m.ra[loc].put(timeKey(tm), writer, c) {
		m.raLive++
		if m.raLive > m.raPeak {
			m.raPeak = m.raLive
		}
	}
}

// readNA checks a nonatomic read by thread t against the write history
// and records it as the thread's last read.
func (ck *checker) readNA(ls *naState, t int32, c []uint64) {
	if ls.lastT != t {
		ls.lastT = t
		ls.wClean, ls.rClean = false, false
	}
	switch ls.wT {
	case noEpoch, t:
		// No foreign write live: nothing to race with.
	case escalated:
		if !ls.wClean {
			ls.wClean = ck.scanWrites(ls, t, c, false)
		}
	default:
		if ls.wC > c[ls.wT] {
			ck.report(ls, ls.wT, t, true, false)
		}
	}
	switch ls.rT {
	case noEpoch, t:
		ls.rT, ls.rC = t, c[t]
	case escalated:
		ls.reads[t] = c[t]
	default:
		if ck.minClock[ls.rT] >= ls.rC {
			// Every thread's frontier has passed the old read epoch: it
			// can never race again, so overwriting it loses no report.
			ls.rT, ls.rC = t, c[t]
		} else {
			ck.escalateReads(ls)
			ls.reads[t] = c[t]
		}
	}
}

// writeNA checks a nonatomic write by thread t against both histories and
// records it as the thread's last write.
func (ck *checker) writeNA(ls *naState, t int32, c []uint64) {
	if ls.lastT != t {
		ls.lastT = t
		ls.wClean, ls.rClean = false, false
	}
	switch ls.wT {
	case noEpoch, t:
	case escalated:
		if !ls.wClean {
			ls.wClean = ck.scanWrites(ls, t, c, true)
		}
	default:
		if ls.wC > c[ls.wT] {
			ck.report(ls, ls.wT, t, true, true)
		}
	}
	switch ls.rT {
	case noEpoch, t:
	case escalated:
		if !ls.rClean {
			ls.rClean = ck.scanReads(ls, t, c)
		}
	default:
		if ls.rC > c[ls.rT] {
			ck.report(ls, ls.rT, t, false, true)
		}
	}
	switch ls.wT {
	case noEpoch, t:
		ls.wT, ls.wC = t, c[t]
	case escalated:
		ls.writes[t] = c[t]
	default:
		if ck.minClock[ls.wT] >= ls.wC {
			ls.wT, ls.wC = t, c[t]
		} else {
			ck.escalateWrites(ls)
			ls.writes[t] = c[t]
		}
	}
}

// escalateWrites materialises the per-thread write vector from the
// current epoch. The slice is reused after a demotion.
func (ck *checker) escalateWrites(ls *naState) {
	if ls.writes == nil {
		ls.writes = make([]uint64, ck.nthreads)
	}
	ls.writes[ls.wT] = ls.wC
	ls.wT = escalated
	ls.wClean = false
	ck.escalatedSides++
	ck.escalations++
}

// escalateReads materialises the per-thread read vector from the current
// epoch.
func (ck *checker) escalateReads(ls *naState) {
	if ls.reads == nil {
		ls.reads = make([]uint64, ck.nthreads)
	}
	ls.reads[ls.rT] = ls.rC
	ls.rT = escalated
	ls.rClean = false
	ck.escalatedSides++
	ck.escalations++
}

// report records one race (u's access earlier, t's later) in the
// location's dedup set.
func (ck *checker) report(ls *naState, u, t int32, wi, wj bool) {
	if ls.reported.add(ck.nthreads, u, t, wi, wj) {
		ck.races++
	}
}

// gc refreshes the cached minimum-clock frontier and deletes every RA
// message no thread can gain an edge from any more: once
// min_u C_u[w] ≥ vc[w] for the message's writer w, every current and
// future clock already dominates vc (vector clocks characterise
// happens-before), so the reads-from join is a no-op forever and the
// message is dead weight. Halted threads are excluded from the minimum
// (+∞): they perform no further reads, so nothing is retained for them.
// It also schedules the next sweep, one fixed interval on.
func (m *Monitor) gc() {
	m.gcSweeps++
	if m.nthreads == 0 {
		m.scheduleGC()
		return
	}
	min := m.minClock
	live := false
	for t, c := range m.clocks {
		if m.halted[t] {
			continue
		}
		if !live {
			copy(min, c)
			live = true
			continue
		}
		for u, v := range c {
			if v < min[u] {
				min[u] = v
			}
		}
	}
	if !live {
		// Every thread has halted: the frontier is +∞ everywhere and all
		// retained messages are dead.
		for u := range min {
			min[u] = ^uint64(0)
		}
	}
	// The refreshed frontier may prove escalated vectors collapsible —
	// demote them while it is exact (a sharded monitor's checker is
	// empty; its back-ends compact at the same barrier, in-band).
	m.ck.compactAll()
	if m.win != nil {
		// Prune the short-race windows at the same barrier, so quiet
		// locations drop expired candidates at deterministic positions.
		m.win.pruneAll(m.events)
	}
	var collected uint64
	for l := range m.ra {
		if len(m.ra[l].live) > 0 {
			collected += uint64(m.ra[l].sweep(min))
		}
	}
	m.raLive -= int(collected)
	m.raCollected += collected
	if collected > 0 {
		m.gcProductive++
	}
	m.scheduleGC()
	if m.p != nil {
		m.p.barrier(m.minClock)
	}
	// The sweep is the hot path's publication point: a handful of atomic
	// stores per window keeps the live endpoint at most one window stale.
	m.publishObs()
}

// scanWrites checks the current access of thread t (a read, or a write
// when isWrite) against the last write of every other thread, reporting
// each unordered pair. It returns whether the vector was clean (no
// unordered entry) — the condition under which the scan may be skipped
// for subsequent same-thread accesses.
func (ck *checker) scanWrites(ls *naState, t int32, c []uint64, isWrite bool) bool {
	clean := true
	for u, w := range ls.writes {
		// u == t cannot trigger: the thread's own entry is always below
		// its (just incremented) clock component.
		if w > c[u] {
			clean = false
			ck.report(ls, int32(u), t, true, isWrite)
		}
	}
	return clean
}

// scanReads checks a write by thread t against the last read of every
// other thread (read/write races with the read first in the trace).
func (ck *checker) scanReads(ls *naState, t int32, c []uint64) bool {
	clean := true
	for u, r := range ls.reads {
		if r > c[u] {
			clean = false
			ck.report(ls, int32(u), t, false, true)
		}
	}
	return clean
}

// Reports returns the distinct races observed so far, in the canonical
// order of race.SortReports — directly comparable with race.Races on the
// same trace. A sharded monitor settles its back-ends first, so it
// returns the same set mid-stream as a sequential one.
func (m *Monitor) Reports() []race.Report {
	m.settle()
	out := make([]race.Report, 0, m.checkSum().races)
	for l, d := range m.decls {
		out = m.naAt(int32(l)).reported.appendReports(out, m.nthreads, d.Name)
		if m.win != nil {
			// Under PredShort nonatomic accesses go to the window, not the
			// checker, so the two report sources never overlap.
			out = m.win.locs[l].reported.appendReports(out, m.nthreads, d.Name)
		}
	}
	race.SortReports(out)
	return out
}

// naAt returns location l's race state from the checker that owns it:
// the monitor's own, or the owning back-end's (at its dense index).
func (m *Monitor) naAt(l int32) *naState {
	if p := m.p; p != nil {
		return &p.backs[p.owner[l]].ck.na[p.dense[l]]
	}
	return &m.ck.na[l]
}

// checkSum totals the race checkers' tallies (races, escalatedSides,
// escalations, demotions): the monitor's own checker, every back-end's
// (the caller has settled them; the front-end's own checker is then
// empty), and the short:k window's races.
func (m *Monitor) checkSum() checker {
	var sum checker
	add := func(ck *checker) {
		sum.races += ck.races
		sum.escalatedSides += ck.escalatedSides
		sum.escalations += ck.escalations
		sum.demotions += ck.demotions
	}
	add(&m.ck)
	if m.p != nil {
		for _, b := range m.p.backs {
			add(&b.ck)
		}
	}
	if m.win != nil {
		sum.races += m.win.races
	}
	return sum
}
