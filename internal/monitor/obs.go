package monitor

// Telemetry for the streaming monitor, sequential or sharded, built on
// internal/obs. The design constraint is the hot path: the sequential
// monitor spends ~25ns per event, so even one atomic RMW per event
// (~5ns) would be a double-digit regression. The instrumentation
// therefore splits in two:
//
//   - Hot paths tally into PLAIN single-writer fields (Monitor.kinds,
//     backendSet.routed, checker.escalations, …) — an ordinary increment,
//     well under a nanosecond, invisible in the benchmarks.
//
//   - At natural barriers — GC sweeps (every ≤ gcEvery events), batch
//     flushes, quiesce acks — the owner publishes the tallies into the
//     registry's padded atomic cells (publishObs). Concurrent readers
//     (racemon's /stats handler) touch ONLY the atomic cells via
//     Registry.Snapshot, so a live endpoint is race-free and costs the
//     hot path nothing; the price is bounded staleness of one GC window
//     or batch.
//
// Two read paths follow from that split:
//
//   - Monitor.Stats publishes pending tallies first and returns exact
//     values, but must be called from the feeding goroutine (a sharded
//     monitor quiesces its back-ends, like BackendLoads).
//   - Monitor.Obs exposes the registry itself; Snapshot on it is safe
//     from ANY goroutine at any time and reflects the last publication.
//
// Metric names (stable; racemon's /stats and -json "stats" serve them):
//
//	monitor.events                   counter  events consumed
//	monitor.events.<kind>            counter  per-kind breakdown (read_na, write_na,
//	                                          read_at, write_at, read_ra, write_ra, halt)
//	monitor.races                    counter  distinct races reported
//	monitor.gc.sweeps                counter  frontier refreshes
//	monitor.gc.sweeps_productive     counter  sweeps that reclaimed ≥ 1 RA message
//	monitor.gc.sweeps_unproductive   counter  sweeps that reclaimed none
//	monitor.gc.interval              gauge    current interval (fixed; see SetGCInterval)
//	monitor.ra.live / .peak          gauge    retained RA messages now / high-water
//	monitor.ra.collected             counter  RA messages reclaimed
//	monitor.escalations              counter  epoch→vector transitions
//	monitor.demotions                counter  vector→epoch compactions
//	monitor.escalated_vectors        gauge    sides currently escalated
//	monitor.vector_scans             counter  escalated-side checks that scanned the vector
//	monitor.vector_scans_skipped     counter  escalated-side checks a saturated dedup row skipped
//	monitor.snapshot.encode_bytes/_ns  hist   checkpoint sizes and latency
//	monitor.snapshot.decode_bytes/_ns  hist   restore sizes and latency
//
//	predict.predicate                gauge    active predicate (0 hb, 1 syncp, 2 short;
//	                                          registered only when non-default)
//	predict.window_k                 gauge    PredShort distance bound
//	predict.window_live              gauge    short-race window entries held
//	predict.window_peak              gauge    high-water mark of window entries
//	predict.window_races             counter  races the window checker reported
//	predict.pruned                   counter  expired window entries dropped
//
//	pipeline.routed_records          counter  NA records routed to back-ends
//	pipeline.delta_records           counter  clock-delta records broadcast
//	pipeline.min_records             counter  frontier + barrier records broadcast
//	pipeline.batch_records           hist     flushed batch sizes (count = batches)
//	pipeline.quiesces                counter  quiesce barriers
//	pipeline.quiesce_ns              hist     quiesce latency
//	pipeline.ring_occupancy          vec      batches queued per back-end ring (sampled)
//	pipeline.ring_stalls/.ring_idles counter  producer-full / consumer-empty blocks
//	pipeline.backend_records         vec      NA records applied per back-end
//	pipeline.backend_escalated       vec      escalated sides per back-end
//	pipeline.backend_races           vec      races found per back-end
//
// The registry also backs racemon's /debug/vars and the periodic
// progress line; see cmd/racemon.

import (
	"localdrf/internal/obs"
)

// kindNames indexes Kind for the per-kind event counters.
var kindNames = [...]string{
	ReadNA:   "read_na",
	WriteNA:  "write_na",
	ReadAT:   "read_at",
	WriteAT:  "write_at",
	ReadRA:   "read_ra",
	WriteRA:  "write_ra",
	KindHalt: "halt",
}

// monCells is a monitor's pre-resolved registry cells — looked up once
// at construction so publishObs is a straight run of atomic stores.
type monCells struct {
	events       *obs.Counter
	kinds        [len(kindNames)]*obs.Counter
	races        *obs.Counter
	gcSweeps     *obs.Counter
	gcProd       *obs.Counter
	gcUnprod     *obs.Counter
	gcInterval   *obs.Gauge
	raLive       *obs.Gauge
	raPeak       *obs.Gauge
	raCollected  *obs.Counter
	escalations  *obs.Counter
	demotions    *obs.Counter
	escalated    *obs.Gauge
	scans        *obs.Counter
	scansSkipped *obs.Counter
	snapEncBytes *obs.Hist
	snapEncNs    *obs.Hist
	snapDecBytes *obs.Hist
	snapDecNs    *obs.Hist
	// pc holds the predict.* cells, registered lazily by SetPredicate so
	// default-predicate monitors expose no dead predict metrics.
	pc *predCells
}

// predCells is the predictive-checker cell bundle (see predict.go).
type predCells struct {
	predicate *obs.Gauge
	windowK   *obs.Gauge
	winLive   *obs.Gauge
	winPeak   *obs.Gauge
	winRaces  *obs.Counter
	winPruned *obs.Counter
}

// ensurePredCells registers the predict.* cells on first use (the hot
// path publishes through them only when a predictive predicate is
// active).
func (m *Monitor) ensurePredCells() {
	if m.mo.pc != nil {
		return
	}
	m.mo.pc = &predCells{
		predicate: m.reg.Gauge("predict.predicate"),
		windowK:   m.reg.Gauge("predict.window_k"),
		winLive:   m.reg.Gauge("predict.window_live"),
		winPeak:   m.reg.Gauge("predict.window_peak"),
		winRaces:  m.reg.Counter("predict.window_races"),
		winPruned: m.reg.Counter("predict.pruned"),
	}
}

func newMonCells(reg *obs.Registry) monCells {
	mc := monCells{
		events:       reg.Counter("monitor.events"),
		races:        reg.Counter("monitor.races"),
		gcSweeps:     reg.Counter("monitor.gc.sweeps"),
		gcProd:       reg.Counter("monitor.gc.sweeps_productive"),
		gcUnprod:     reg.Counter("monitor.gc.sweeps_unproductive"),
		gcInterval:   reg.Gauge("monitor.gc.interval"),
		raLive:       reg.Gauge("monitor.ra.live"),
		raPeak:       reg.Gauge("monitor.ra.peak"),
		raCollected:  reg.Counter("monitor.ra.collected"),
		escalations:  reg.Counter("monitor.escalations"),
		demotions:    reg.Counter("monitor.demotions"),
		escalated:    reg.Gauge("monitor.escalated_vectors"),
		scans:        reg.Counter("monitor.vector_scans"),
		scansSkipped: reg.Counter("monitor.vector_scans_skipped"),
		snapEncBytes: reg.Hist("monitor.snapshot.encode_bytes"),
		snapEncNs:    reg.Hist("monitor.snapshot.encode_ns"),
		snapDecBytes: reg.Hist("monitor.snapshot.decode_bytes"),
		snapDecNs:    reg.Hist("monitor.snapshot.decode_ns"),
	}
	for k, name := range kindNames {
		mc.kinds[k] = reg.Counter("monitor.events." + name)
	}
	return mc
}

// publishObs copies the monitor's plain tallies into the registry's
// atomic cells. Called at GC sweeps and Stats — always from the
// goroutine that owns the monitor (a sharded monitor's back-ends
// publish their own vec entries at batch boundaries and quiesce
// barriers; see backend.run).
func (m *Monitor) publishObs() {
	mo := &m.mo
	mo.events.Store(m.events)
	for k := range kindNames {
		mo.kinds[k].Store(m.kinds[k])
	}
	mo.gcSweeps.Store(m.gcSweeps)
	mo.gcProd.Store(m.gcProductive)
	mo.gcUnprod.Store(m.gcSweeps - m.gcProductive)
	mo.gcInterval.Set(int64(m.gcEvery))
	mo.raLive.Set(int64(m.raLive))
	mo.raPeak.Set(int64(m.raPeak))
	mo.raCollected.Store(m.raCollected)
	if p := m.p; p != nil {
		// A sharded monitor's checker state lives in the back-ends, which
		// only Stats may read, behind a quiesce. The routing tallies are
		// the front-end's, and the rings are sampled here.
		po := &p.po
		po.routed.Store(p.routed)
		po.delta.Store(p.deltaRecs)
		po.minRecs.Store(p.minRecsSent)
		var stalls, idles uint64
		for s, ln := range p.lanes {
			po.ringOcc.Store(s, uint64(ln.q.Len()))
			st, id := ln.q.Stats()
			stalls += st
			idles += id
		}
		po.ringStalls.Store(stalls)
		po.ringIdles.Store(idles)
	} else {
		m.publishChecks()
	}
	if mo.pc != nil {
		mo.pc.predicate.Set(int64(m.pred))
		mo.pc.windowK.Set(int64(m.windowK))
		if m.win != nil {
			mo.pc.winLive.Set(int64(m.win.live))
			mo.pc.winPeak.Set(int64(m.win.peak))
			mo.pc.winRaces.Store(uint64(m.win.races))
			mo.pc.winPruned.Store(m.win.pruned)
		}
	}
}

// publishChecks publishes the race checkers' tallies (see checkSum).
func (m *Monitor) publishChecks() {
	sum, mo := m.checkSum(), &m.mo
	mo.races.Store(uint64(sum.races))
	mo.escalations.Store(sum.escalations)
	mo.demotions.Store(sum.demotions)
	mo.escalated.Set(int64(sum.escalatedSides))
	mo.scans.Store(sum.vectorScans)
	mo.scansSkipped.Store(sum.scansSkipped)
}

// Obs returns the monitor's metric registry (monitor.*, predict.* and,
// when sharded, pipeline.* metrics together). Registry.Snapshot on it
// is safe from any goroutine while the monitor runs; values lag the
// stream by at most one GC window or in-flight batch (see Stats for
// exact values).
func (m *Monitor) Obs() *obs.Registry { return m.reg }

// Stats publishes all pending tallies and returns an exact metrics
// snapshot. Unlike Obs().Snapshot(), it must be called from the feeding
// goroutine (between Steps); a finished monitor may be read from
// anywhere. A sharded monitor settles its back-ends first and
// aggregates them into the monitor.* cells a sequential one fills
// itself, so its snapshot is a superset of the sequential one.
// RAStats remains the stable, typed subset.
func (m *Monitor) Stats() obs.Snapshot {
	if m.p != nil {
		m.settle()
		m.publishChecks()
	}
	m.publishObs()
	return m.reg.Snapshot()
}

// pipeCells is a sharded monitor's own cell bundle, registered in the
// monitor's registry so one snapshot covers both layers.
type pipeCells struct {
	routed     *obs.Counter
	delta      *obs.Counter
	minRecs    *obs.Counter
	batchHist  *obs.Hist
	quiesces   *obs.Counter
	quiesceNs  *obs.Hist
	ringOcc    *obs.Vec
	ringStalls *obs.Counter
	ringIdles  *obs.Counter
	backRecs   *obs.Vec
	backEsc    *obs.Vec
	backRaces  *obs.Vec
}

func newPipeCells(reg *obs.Registry, shards int) pipeCells {
	return pipeCells{
		routed:     reg.Counter("pipeline.routed_records"),
		delta:      reg.Counter("pipeline.delta_records"),
		minRecs:    reg.Counter("pipeline.min_records"),
		batchHist:  reg.Hist("pipeline.batch_records"),
		quiesces:   reg.Counter("pipeline.quiesces"),
		quiesceNs:  reg.Hist("pipeline.quiesce_ns"),
		ringOcc:    reg.Vec("pipeline.ring_occupancy", shards),
		ringStalls: reg.Counter("pipeline.ring_stalls"),
		ringIdles:  reg.Counter("pipeline.ring_idles"),
		backRecs:   reg.Vec("pipeline.backend_records", shards),
		backEsc:    reg.Vec("pipeline.backend_escalated", shards),
		backRaces:  reg.Vec("pipeline.backend_races", shards),
	}
}
