package monitor

// Predictive race detection: the second checker family behind the same
// ingestion and back-end plumbing. The default predicate (PredHB) decides the
// paper's defs. 9/10 over the observed trace exactly. The two predictive
// predicates report races exposed by feasible reorderings the observed
// schedule did not take:
//
//   - PredSyncP (sync-preserving races, after Kulkarni/Mathur/
//     Pavlogiannis): two conflicting accesses race if SOME correct
//     reordering of the observed trace that preserves each variable's
//     reads-from choices makes them adjacent-concurrent. The monitor
//     decides it with SP clocks: the same vector-clock pass, but only
//     program order and reads-from edges perform joins. Concretely, an
//     SC-atomic write STILL publishes its clock (so later reads of that
//     write join it — the reads-from edge) but does NOT join the
//     previous released clock of the location first: write→write
//     coherence order is exactly the ordering a sync-preserving
//     reordering may flip. RA reads-from joins are kept (they ARE rf
//     edges). The SP relation is a subset of happens-before, so every
//     HB-unordered conflicting pair stays SP-unordered: reported ⊇ the
//     plain HB reports on the same trace, and every extra report
//     corresponds to a feasible reordering (proven against the
//     brute-force enumeration oracle in internal/modeltest).
//
//   - PredShort (distance-k short races, after Zhang): SP clocks plus a
//     candidate bound — only access pairs within k events of each other
//     in the observed trace are considered. Per nonatomic location the
//     monitor keeps a FIFO window of the accesses from the last k
//     events; an access is checked against exactly the live window
//     entries (same epoch comparison the HB checker uses, over SP
//     clocks), so state is O(min(accesses, locations × k)) regardless
//     of stream length, composing with the windowed RA GC: the whole
//     monitor stays bounded on 10⁶+-event streams. short:k reports are
//     a subset of the PredSyncP reports (the window only removes
//     candidates), and with k ≥ the stream length they are equal.
//
// The epoch/escalation/demotion machinery, the dedup bitmasks, the
// windowed RA GC and the snapshot codec are all predicate-agnostic:
// their proofs use only generic properties of join-only vector-clock
// systems (a clock entry c[w] = i dominates thread w's clock at its
// i-th event), which hold for the SP construction exactly as for HB.
// Sequential and sharded monitors therefore run the predictive
// predicates through the unchanged checker seam; under PredShort the
// window lives in the synchronisation half (nonatomic accesses are not
// routed to back-ends — the window needs the global event index, which
// only the front-end has), and its state serialises in the snapshot's
// predict part so split/resume stays byte-identical.

// Predicate selects the race definition a monitor decides. The zero
// value is the observed-trace happens-before predicate.
type Predicate uint8

const (
	// PredHB is the default: defs. 9/10 over the observed trace.
	PredHB Predicate = iota
	// PredSyncP reports sync-preserving predictable races (a superset
	// of PredHB on every trace).
	PredSyncP
	// PredShort reports sync-preserving races whose accesses lie within
	// a configured distance k of each other in the observed trace (a
	// subset of PredSyncP with bounded candidate state).
	PredShort
)

// String returns the racemon flag spelling of the predicate.
func (p Predicate) String() string {
	switch p {
	case PredHB:
		return "hb"
	case PredSyncP:
		return "syncp"
	case PredShort:
		return "short"
	default:
		return "unknown"
	}
}

// SetPredicate selects the race predicate the monitor decides. k is the
// event-distance bound of PredShort (ignored for the others). Must be
// called before any event is consumed; like the GC interval it is
// configuration, but unlike the GC interval it is recorded in snapshots
// (a resumed monitor continues under the checkpointed predicate, which
// is authoritative). Panics on a started monitor, on PredShort with
// k < 1, and on an unknown predicate.
func (m *Monitor) SetPredicate(p Predicate, k int) {
	if m.events != 0 {
		panic("monitor: SetPredicate after events were consumed")
	}
	switch p {
	case PredHB:
		m.pred, m.windowK, m.win = PredHB, 0, nil
	case PredSyncP:
		m.pred, m.windowK, m.win = PredSyncP, 0, nil
	case PredShort:
		if k < 1 {
			panic("monitor: PredShort requires a window k ≥ 1")
		}
		m.pred, m.windowK = PredShort, uint64(k)
		m.win = newWindow(m.nthreads, len(m.decls), uint64(k))
	default:
		panic("monitor: unknown predicate")
	}
	if p != PredHB {
		m.ensurePredCells()
	}
}

// Predicate returns the predicate the monitor decides.
func (m *Monitor) Predicate() Predicate { return m.pred }

// WindowK returns the PredShort distance bound (0 unless PredShort).
func (m *Monitor) WindowK() int { return int(m.windowK) }

// WindowStats is the short-race window telemetry: the candidate-pair
// state the distance bound keeps live.
type WindowStats struct {
	// Live is the number of window entries currently held (including
	// expired entries not yet visited by a prune pass).
	Live int
	// Peak is the high-water mark of Live — the bounded-memory claim
	// of PredShort, measured.
	Peak int
	// Pruned is how many expired entries the window has dropped.
	Pruned uint64
	// Races is how many distinct races the window checker reported.
	Races int
}

// WindowStats returns the short-race window telemetry (zero unless the
// monitor runs PredShort).
func (m *Monitor) WindowStats() WindowStats {
	if m.win == nil {
		return WindowStats{}
	}
	return WindowStats{Live: m.win.live, Peak: m.win.peak, Pruned: m.win.pruned, Races: m.win.races}
}

// winEntry is one retained access in a location's distance-k window.
type winEntry struct {
	// gidx is the global stream index of the access (Monitor.events at
	// the time) — the distance bound compares these.
	gidx uint64
	// epoch is the accessor's own clock component at the access: the
	// same thread@clock word the epoch representation uses, compared
	// against the later access's clock entry for the thread.
	epoch uint64
	t     int32
	write bool
}

// winLoc is one nonatomic location's window state: a FIFO of live
// entries (entries[head:]) and the same dedup set the HB checker uses,
// so reports merge and sort identically.
type winLoc struct {
	head     int
	entries  []winEntry
	reported pairSet
}

// window is the distance-k candidate store of PredShort. Pruning is
// lazy — an accessed location drops its expired prefix first, and every
// GC sweep prunes all locations — so the prune schedule is a
// deterministic function of the event stream alone: sequential runs,
// sharded runs at any shard count and split/resume runs hold identical
// window state (and telemetry) at every stream position.
type window struct {
	nthreads int
	k        uint64
	locs     []winLoc
	races    int
	live     int
	peak     int
	pruned   uint64
}

func newWindow(nthreads, nlocs int, k uint64) *window {
	return &window{nthreads: nthreads, k: k, locs: make([]winLoc, nlocs)}
}

// access checks one nonatomic access against the location's live window
// and appends it. c is the accessor's (SP) clock, gidx the global
// stream index of the access.
func (w *window) access(loc, t int32, write bool, c []uint64, gidx uint64) {
	wl := &w.locs[loc]
	w.pruneLoc(wl, gidx)
	for i := wl.head; i < len(wl.entries); i++ {
		e := &wl.entries[i]
		if e.t != t && (e.write || write) && e.epoch > c[e.t] {
			w.report(wl, e.t, t, e.write, write)
		}
	}
	wl.entries = append(wl.entries, winEntry{gidx: gidx, epoch: c[t], t: t, write: write})
	w.live++
	if w.live > w.peak {
		w.peak = w.live
	}
}

// pruneLoc drops the expired prefix of one location's FIFO (entries
// more than k events behind gidx) and compacts the backing slice once
// the dead prefix dominates it.
func (w *window) pruneLoc(wl *winLoc, gidx uint64) {
	for wl.head < len(wl.entries) && gidx-wl.entries[wl.head].gidx > w.k {
		wl.head++
		w.live--
		w.pruned++
	}
	if wl.head == len(wl.entries) {
		wl.entries = wl.entries[:0]
		wl.head = 0
	} else if wl.head > 32 && wl.head > len(wl.entries)/2 {
		n := copy(wl.entries, wl.entries[wl.head:])
		wl.entries = wl.entries[:n]
		wl.head = 0
	}
}

// pruneAll prunes every location — called at GC sweeps, so expired
// entries on quiet locations are dropped at deterministic stream
// positions rather than held until the next access.
func (w *window) pruneAll(gidx uint64) {
	for l := range w.locs {
		w.pruneLoc(&w.locs[l], gidx)
	}
}

// report records one window race in the location's dedup set — the
// same set the HB checker keeps.
func (w *window) report(wl *winLoc, u, t int32, wi, wj bool) {
	if wl.reported.add(w.nthreads, u, t, wi, wj) {
		w.races++
	}
}
