package main

import (
	"bytes"
	"slices"
	"time"

	"localdrf/internal/monitor"
	"localdrf/internal/obs"
	"localdrf/internal/race"
)

// unitRec is one measured unit: a trace monitored offline or a session
// served by racemond.
type unitRec struct {
	trace  int // index into the run's traces
	round  int // index into the window's rounds
	dur    time.Duration
	events uint64
	traced bool
	err    error
	out    outcome
	stats  unitStats
	// canonical is the service's SessionResult.CanonicalJSON with the
	// session id cleared (service units only).
	canonical []byte
}

// unitStats are the per-unit counts a traced window reads after each
// unit, outside its timing.
type unitStats struct {
	batches                         uint64 // NextBatch calls that returned events
	races, escalations, demotions   uint64
	sweeps, productive, raCollected uint64
	raPeak, windowPeak              int64
	pruned, windowRaces             uint64
	stalls, idles, deltas, quiesces uint64
	flushes, flushedRecs            uint64
	imbalance                       float64
	retries                         int
	writeBlocked                    time.Duration
}

// offlineUnit runs the racemon -trace job on one trace: NewTraceReader,
// then Monitor or Pipeline, until the reports are in hand. The unit is
// traced into log unless log is nil; withStats reads the engine's
// counters after the unit's timing has stopped.
func offlineUnit(w workload, trace []byte, log *spanLog, withStats bool) unitRec {
	start := time.Now()
	var ut *unitTrace
	if log != nil {
		ut = log.begin(start)
	}
	tr, err := monitor.NewTraceReader(bytes.NewReader(trace))
	if err != nil {
		return unitRec{dur: time.Since(start), err: err}
	}
	t := ut.child("wire.open", start)
	hdr := tr.Header()
	var (
		m      *monitor.Monitor
		p      *monitor.Pipeline
		step   func([]monitor.Event)
		finish func() []race.Report
	)
	if w.shards > 1 {
		p = monitor.NewPipeline(hdr.Threads, hdr.Decls, monitor.PipelineConfig{Shards: w.shards, Predicate: w.pred, WindowK: w.k})
		step, finish = p.StepBatch, p.Finish
	} else {
		m = tr.NewMonitor()
		if w.pred != monitor.PredHB {
			m.SetPredicate(w.pred, w.k)
		}
		step, finish = m.StepBatch, m.Reports
	}
	stepLayer := w.stepLayer()
	t = ut.now() // engine construction is left uncovered
	var buf []monitor.Event
	var batches uint64
	for {
		batch, more, err := tr.NextBatch(buf[:0])
		t = ut.child("wire.decode", t)
		if err != nil {
			if p != nil {
				p.Abort()
			}
			return unitRec{dur: time.Since(start), err: err}
		}
		if !more {
			break
		}
		step(batch)
		t = ut.child(stepLayer, t)
		buf = batch
		batches++
	}
	reports := finish()
	end := time.Now()
	ut.childAt(w.finishLayer(), t, end)
	ut.end(end)

	u := unitRec{dur: end.Sub(start)}
	var snap obs.Snapshot
	if p != nil {
		u.events = p.Events()
		u.out = newOutcome(u.events, reports, p.RAStats(), p.WindowStats())
		if withStats {
			snap = p.Stats()
			loads := p.BackendLoads()
			var sum uint64
			for _, l := range loads {
				sum += l
			}
			u.stats.imbalance = ratio(float64(slices.Max(loads)), float64(sum)/float64(len(loads)))
		}
	} else {
		u.events = m.Events()
		u.out = newOutcome(u.events, reports, m.RAStats(), m.WindowStats())
		if withStats {
			snap = m.Stats()
		}
	}
	if withStats {
		u.stats.fromSnapshot(snap)
		u.stats.batches = batches
	}
	return u
}

// fromSnapshot reads the monitor's and pipeline's own counters.
func (s *unitStats) fromSnapshot(snap obs.Snapshot) {
	s.races = snap.Counter("monitor.races")
	s.escalations = snap.Counter("monitor.escalations")
	s.demotions = snap.Counter("monitor.demotions")
	s.sweeps = snap.Counter("monitor.gc.sweeps")
	s.productive = snap.Counter("monitor.gc.sweeps_productive")
	s.raCollected = snap.Counter("monitor.ra.collected")
	s.raPeak = snap.Gauge("monitor.ra.peak")
	s.windowPeak = snap.Gauge("predict.window_peak")
	s.pruned = snap.Counter("predict.pruned")
	s.windowRaces = snap.Counter("predict.window_races")
	s.stalls = snap.Counter("pipeline.ring_stalls")
	s.idles = snap.Counter("pipeline.ring_idles")
	s.deltas = snap.Counter("pipeline.delta_records")
	s.quiesces = snap.Counter("pipeline.quiesces")
	h := snap.Histograms["pipeline.batch_records"]
	s.flushes, s.flushedRecs = h.Count, h.Sum
}

// offlineRound returns the round of the offline job: one goroutine
// monitors each trace once, a unit starting when the previous one has
// its reports. With a span log, every other round is traced, so the
// traced window also measures what tracing costs on the same traces.
func offlineRound(w workload, traces [][]byte, log *spanLog) func(r int) []unitRec {
	return func(r int) []unitRec {
		var rl *spanLog
		if r%2 == 0 {
			rl = log
		}
		units := make([]unitRec, len(traces))
		for i, tr := range traces {
			units[i] = offlineUnit(w, tr, rl, log != nil)
			units[i].trace, units[i].traced = i, rl != nil
		}
		return units
	}
}
