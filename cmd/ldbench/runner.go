package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"localdrf/internal/obs"
	"localdrf/internal/service"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// runConfig is one workload run.
type runConfig struct {
	seed             int64
	events           int  // events per trace; 0 means the workload's own size
	e2e, layers      bool // run the untraced and the traced window
	untraced, traced time.Duration
	workDir          string // where the server's checkpoint directory is made
	golden           map[string]outcome
	spansPath        string // JSON-lines file for the traced window's spans
}

// result is what one workload run measured and checked.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Host      hostInfo           `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
	Warnings  []string           `json:"warnings,omitempty"`
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// window is one closed-loop measurement interval, run in rounds. Every
// round monitors each trace once (offline) or runs a cycle of sessions
// on every client (service), so all rounds do the same work.
type window struct {
	units               []unitRec
	rounds              []round
	mallocs, allocBytes uint64
}

// round is one round of a window: its wall time, the process's CPU time
// in it, and the factor that turns its times into times at the
// reference host's speed.
type round struct {
	wall, cpu time.Duration
	scale     float64
}

// scaleBetween returns the factor that turns a time measured between two
// calibrations into one at the reference host's speed (see
// calibrate.go).
func scaleBetween(before, after time.Duration) float64 {
	return float64(calibrationRef) / float64((before+after)/2)
}

// measureRounds collects garbage left by earlier phases, so the window
// does not pay for them, then runs rounds until d has passed and at
// least minRounds have run.
func measureRounds(d time.Duration, minRounds int, run func(r int) []unitRec) *window {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w := &window{}
	start := time.Now()
	before := calibrate()
	for r := 0; r < minRounds || time.Since(start) < d; r++ {
		begin, cpu := time.Now(), cpuTime()
		units := run(r)
		rd := round{wall: time.Since(begin), cpu: cpuTime() - cpu}
		after := calibrate()
		rd.scale, before = scaleBetween(before, after), after
		for i := range units {
			units[i].round = r
		}
		w.units = append(w.units, units...)
		w.rounds = append(w.rounds, rd)
	}
	runtime.ReadMemStats(&m1)
	w.mallocs, w.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return w
}

// tally sums the units of a window that completed without error. dur
// and ms are at the reference host's speed, msRaw as measured.
type tally struct {
	n         int
	events    uint64
	dur       time.Duration
	ms, msRaw []float64
}

func (w *window) sum(keep func(unitRec) bool) tally {
	var t tally
	for _, u := range w.units {
		if u.err != nil || (keep != nil && !keep(u)) {
			continue
		}
		s := w.rounds[u.round].scale
		t.n++
		t.events += u.events
		t.dur += time.Duration(float64(u.dur) * s)
		t.ms = append(t.ms, ms(u.dur)*s)
		t.msRaw = append(t.msRaw, ms(u.dur))
	}
	return t
}

// roundRates returns, per round, the events monitored per second and
// the CPU time per event, at the reference host's speed and as
// measured, and the host's speed relative to the reference.
func (w *window) roundRates() (rate, rateRaw, cpu, cpuRaw, speed []float64) {
	events := make([]float64, len(w.rounds))
	for _, u := range w.units {
		if u.err == nil {
			events[u.round] += float64(u.events)
		}
	}
	for i, r := range w.rounds {
		speed = append(speed, r.scale)
		if events[i] == 0 {
			continue
		}
		raw := events[i] / r.wall.Seconds()
		rateRaw = append(rateRaw, raw)
		rate = append(rate, raw/r.scale)
		c := float64(r.cpu) / events[i]
		cpuRaw = append(cpuRaw, c)
		cpu = append(cpu, c*r.scale)
	}
	return rate, rateRaw, cpu, cpuRaw, speed
}

// runWorkload sets up, warms up, measures the requested windows and then
// checks every unit's outcome. An error means the run could not be
// carried out at all; a wrong answer is reported in the result.
func runWorkload(w workload, cfg runConfig) (res *result, err error) {
	events := cfg.events
	if events == 0 {
		events = w.events
	}
	res = &result{Workload: w.name, Seed: cfg.seed, Host: host(), Metrics: map[string]float64{}}

	var rig *serviceRig
	defer func() {
		if rig != nil {
			rig.close()
		}
	}()
	var ckptDir string
	if w.service {
		if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
			return nil, err
		}
		if ckptDir, err = os.MkdirTemp(cfg.workDir, "ckpt-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(ckptDir)
	}

	// Set-up: generate and encode the traces, and boot the server.
	var traces [][]byte
	var setupS, setupRaw, encodeS []float64
	before := calibrate()
	for r := 0; r < setupReps; r++ {
		if rig != nil {
			rig.close()
			rig = nil
		}
		start := time.Now()
		next, err := w.genTraces(cfg.seed, events)
		if err != nil {
			return nil, err
		}
		encode := time.Since(start)
		if w.service {
			if rig, err = bootServer(ckptDir); err != nil {
				return nil, err
			}
		}
		dur := time.Since(start)
		after := calibrate()
		scale := scaleBetween(before, after)
		before = after
		encodeS = append(encodeS, encode.Seconds()*scale)
		setupS = append(setupS, dur.Seconds()*scale)
		setupRaw = append(setupRaw, dur.Seconds())
		for i := range traces {
			if !bytes.Equal(traces[i], next[i]) {
				return nil, fmt.Errorf("trace %d differs between set-ups: generation is not deterministic", cfg.seed+int64(i))
			}
		}
		traces = next
		// Free the previous repetition's traces now, so the heap's high
		// water, and with it peak_rss_mb, does not depend on when the
		// collector happened to run.
		runtime.GC()
	}

	// A round gives every client a whole cycle of the traces.
	measure := func(d time.Duration, minRounds, perClient int, log *spanLog, tag string) *window {
		if w.service {
			return measureRounds(d, minRounds, serviceRound(rig, traces, perClient, log, tag))
		}
		return measureRounds(d, minRounds, offlineRound(w, traces, log))
	}
	warm := measure(0, 1, 2, nil, "warm")
	var e2e, lay *window
	var log *spanLog
	var svcBefore, svcAfter obs.Snapshot
	if cfg.e2e {
		e2e = measure(cfg.untraced, 1, len(traces), nil, "e2e")
	}
	if cfg.layers {
		log = newSpanLog()
		if rig != nil {
			svcBefore = rig.srv.Obs().Snapshot()
		}
		lay = measure(cfg.traced, 2, len(traces), log, "layers") // a traced and an untraced round
	}
	peak := peakRSSMiB()
	var fs *ckptFS
	if rig != nil {
		// The service's counters are read only once Close has waited for
		// every handler: sessions_completed moves after the done line.
		rig.close()
		svcAfter = rig.srv.Obs().Snapshot()
		fs = rig.fs
		rig = nil
	}

	// Check every unit against the reference outcome of its trace.
	refs, canon, err := res.references(w, cfg.seed, events, cfg.golden)
	if err != nil {
		return nil, err
	}
	res.verify("warm-up", warm.units, refs, canon, false)
	results := warm.sum(nil).n
	for _, win := range []*window{e2e, lay} {
		if win != nil {
			res.Attempted += len(win.units)
			res.verify("window", win.units, refs, canon, true)
			results += win.sum(nil).n
		}
	}
	if got := svcAfter.Counter("service.sessions_completed"); w.service && got != uint64(results) {
		res.problem("server counted %d completed sessions, clients received %d results", got, results)
	}

	if e2e != nil {
		t := e2e.sum(nil)
		rate, rateRaw, cpu, cpuRaw, speed := e2e.roundRates()
		m := res.Metrics
		m["setup_s"], m["setup_s_raw"] = median(setupS), median(setupRaw)
		m["events_per_s"], m["events_per_s_raw"] = median(rate), median(rateRaw)
		m["unit_p50_ms"], m["unit_p50_ms_raw"] = percentile(t.ms, 0.50), percentile(t.msRaw, 0.50)
		m["unit_p90_ms"], m["unit_p90_ms_raw"] = percentile(t.ms, 0.90), percentile(t.msRaw, 0.90)
		m["cpu_ns_per_event"], m["cpu_ns_per_event_raw"] = median(cpu), median(cpuRaw)
		m["peak_rss_mb"] = peak
		m["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
		m["host.speed"] = median(speed)
	}
	if lay != nil {
		var bytesTotal int
		for _, tr := range traces {
			bytesTotal += len(tr)
		}
		res.Metrics["schedgen.encode_s"] = median(encodeS)
		res.Metrics["wire.bytes_per_event"] = float64(bytesTotal) / float64(len(traces)*events)
		lt := log.analyze()
		res.layerMetrics(lay, lt, fs, svcBefore, svcAfter)
		if w.shards > 1 {
			res.seqReference(w, traces, refs)
		}
		if share := res.Metrics["trace.unaccounted_share"]; !w.service && share > 0.10 {
			res.Warnings = append(res.Warnings, fmt.Sprintf("layers cover only %.1f%% of unit time (want ≥ 90%%)", 100*(1-share)))
		}
		if cfg.spansPath != "" {
			if err := log.write(cfg.spansPath); err != nil {
				return nil, err
			}
		}
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	return res, nil
}

// references computes each trace's reference outcome and checks it
// against the golden entry, when there is one. For the service it also
// renders the reference SessionResult's canonical JSON.
func (res *result) references(w workload, seed int64, events int, golden map[string]outcome) ([]outcome, [][]byte, error) {
	refs := make([]outcome, tracesPerSeed)
	canon := make([][]byte, tracesPerSeed)
	for i := range refs {
		ref, reports, err := w.reference(seed+int64(i), events)
		if err != nil {
			return nil, nil, err
		}
		refs[i] = ref
		key := goldenKey(w.name, seed+int64(i), events)
		if g, ok := golden[key]; ok && g != ref {
			res.problem("golden mismatch for %s: golden %+v, reference %+v", key, g, ref)
		}
		if w.service {
			sr := service.SessionResult{Events: ref.Events, RaceCount: ref.Races, Races: []service.RaceJSON{},
				RALive: ref.RALive, RAPeak: ref.RAPeak, RACollected: ref.RACollected}
			for _, r := range reports {
				sr.Races = append(sr.Races, service.RaceJSON{Loc: string(r.Loc), ThreadI: r.ThreadI, ThreadJ: r.ThreadJ,
					OpI: opName(r.WriteI), OpJ: opName(r.WriteJ)})
			}
			canon[i] = sr.CanonicalJSON()
		}
	}
	return refs, canon, nil
}

// verify compares units with the references. Only measured windows
// count toward attempted and failed; a wrong warm-up unit still makes the
// run incorrect through its problem line. The first few problems are
// kept.
func (res *result) verify(phase string, units []unitRec, refs []outcome, canon [][]byte, counted bool) {
	const maxReported = 5
	for i, u := range units {
		var msg string
		switch {
		case u.err != nil:
			msg = u.err.Error()
		case u.out != refs[u.trace]:
			msg = fmt.Sprintf("outcome %+v, reference %+v", u.out, refs[u.trace])
		case canon[u.trace] != nil && !bytes.Equal(u.canonical, canon[u.trace]):
			msg = fmt.Sprintf("session result %s, reference %s", u.canonical, canon[u.trace])
		default:
			continue
		}
		if counted {
			res.Failed++
		}
		if len(res.Problems) < maxReported {
			res.problem("%s unit %d (trace %d): %s", phase, i, u.trace, msg)
		}
	}
}

// seqReference times the sequential racemon -trace job over the
// pipeline's traces: the single-threaded baseline of the same job. Its
// outcomes must match the references too.
func (res *result) seqReference(w workload, traces [][]byte, refs []outcome) {
	seq := w
	seq.shards = 1
	var events uint64
	var dur time.Duration
	for i, tr := range traces {
		u := offlineUnit(seq, tr, nil, false)
		if u.err != nil || u.out != refs[i] {
			res.problem("sequential reference run of trace %d: err=%v outcome %+v, reference %+v", i, u.err, u.out, refs[i])
			continue
		}
		events += u.events
		dur += u.dur
	}
	res.Metrics["pipeline.seq_ref_events_per_s"] = ratio(float64(events), dur.Seconds())
}

// layerMetrics derives the per-layer metrics of the traced window.
func (res *result) layerMetrics(win *window, lt layerTimes, fs *ckptFS, svcBefore, svcAfter obs.Snapshot) {
	m := res.Metrics
	all := win.sum(nil)
	traced := win.sum(func(u unitRec) bool { return u.traced })
	untraced := win.sum(func(u unitRec) bool { return !u.traced })
	var s unitStats
	var imbalance float64
	var blocked time.Duration
	for _, u := range win.units {
		if u.err != nil {
			continue
		}
		st := u.stats
		s.batches += st.batches
		s.races += st.races
		s.escalations += st.escalations
		s.demotions += st.demotions
		s.sweeps += st.sweeps
		s.productive += st.productive
		s.raCollected += st.raCollected
		s.raPeak = max(s.raPeak, st.raPeak)
		s.windowPeak = max(s.windowPeak, st.windowPeak)
		s.pruned += st.pruned
		s.windowRaces += st.windowRaces
		s.stalls += st.stalls
		s.idles += st.idles
		s.deltas += st.deltas
		s.quiesces += st.quiesces
		s.flushes += st.flushes
		s.flushedRecs += st.flushedRecs
		s.retries += st.retries
		imbalance += st.imbalance
		if u.traced {
			blocked += st.writeBlocked
		}
	}
	n, ev := float64(all.n), float64(all.events)
	mev := ev / 1e6
	svc := func(name string) float64 { return float64(svcAfter.Counter(name) - svcBefore.Counter(name)) }

	m["wire.decode_s"] = lt.perUnitSeconds("wire.open", "wire.decode")
	m["wire.decode_share"] = lt.share("wire.open", "wire.decode")
	m["wire.events_per_batch"] = ratio(ev, float64(s.batches))
	m["monitor.step_s"] = lt.perUnitSeconds("monitor.step")
	m["monitor.step_share"] = lt.share("monitor.step")
	m["monitor.reports_s"] = lt.perUnitSeconds("monitor.reports")
	m["monitor.reports_share"] = lt.share("monitor.reports")
	m["monitor.races_per_unit"] = ratio(float64(s.races), n)
	m["monitor.escalations_per_Mevent"] = ratio(float64(s.escalations), mev)
	m["monitor.demotions_per_Mevent"] = ratio(float64(s.demotions), mev)
	m["monitor.gc_sweeps_per_Mevent"] = ratio(float64(s.sweeps), mev)
	m["monitor.gc_productive_frac"] = ratio(float64(s.productive), float64(s.sweeps))
	m["monitor.ra_peak_live"] = float64(s.raPeak)
	m["monitor.ra_collected_per_Mevent"] = ratio(float64(s.raCollected), mev)
	m["monitor.allocs_per_event"] = ratio(float64(win.mallocs), ev)
	m["monitor.alloc_bytes_per_event"] = ratio(float64(win.allocBytes), ev)
	m["predict.window_peak"] = float64(s.windowPeak)
	m["predict.pruned_per_event"] = ratio(float64(s.pruned), ev)
	m["predict.window_races_per_unit"] = ratio(float64(s.windowRaces), n)
	m["pipeline.step_s"] = lt.perUnitSeconds("pipeline.step")
	m["pipeline.step_share"] = lt.share("pipeline.step")
	m["pipeline.finish_s"] = lt.perUnitSeconds("pipeline.finish")
	m["pipeline.finish_share"] = lt.share("pipeline.finish")
	m["pipeline.ring_stalls_per_batch"] = ratio(float64(s.stalls), float64(s.flushes))
	m["pipeline.ring_idles_per_batch"] = ratio(float64(s.idles), float64(s.flushes))
	m["pipeline.backend_imbalance"] = ratio(imbalance, n)
	m["pipeline.delta_records_per_event"] = ratio(float64(s.deltas), ev)
	m["pipeline.quiesces_per_unit"] = ratio(float64(s.quiesces), n)
	m["pipeline.batch_records_mean"] = ratio(float64(s.flushedRecs), float64(s.flushes))
	m["service.handshake_ms_p50"] = lt.p50ms("service.handshake")
	m["service.handshake_share"] = lt.share("service.handshake")
	m["service.upload_ms_p50"] = lt.p50ms("service.upload")
	m["service.upload_share"] = lt.share("service.upload")
	m["service.write_blocked_share"] = ratio(float64(blocked), float64(lt.unitNs))
	m["service.result_wait_ms_p50"] = lt.p50ms("service.result_wait")
	m["service.result_wait_share"] = lt.share("service.result_wait")
	m["service.wire_bytes_per_event"] = ratio(svc("service.bytes_in"), ev)
	m["service.retries"] = float64(s.retries)
	m["service.rejected"] = svc("service.sessions_rejected")
	m["service.ingest_errors"] = svc("service.ingest_errors")
	m["service.crc_errors"] = svc("service.chunk_crc_errors")
	m["ckpt.failures"] = svc("service.checkpoint_failures")
	var writes, fsyncs, sizes []float64
	var ckptNs int64
	if fs != nil {
		for _, r := range fs.recs {
			writes = append(writes, ms(r.write))
			fsyncs = append(fsyncs, ms(r.fsync))
			sizes = append(sizes, float64(r.bytes))
			ckptNs += (r.write + r.fsync).Nanoseconds()
		}
	}
	m["ckpt.writes_per_session"] = ratio(float64(len(writes)), float64(traced.n))
	m["ckpt.write_ms_p50"] = percentile(writes, 0.5)
	m["ckpt.fsync_ms_p50"] = percentile(fsyncs, 0.5)
	m["ckpt.bytes_p50"] = percentile(sizes, 0.5)
	m["ckpt.share"] = ratio(float64(ckptNs), float64(lt.unitNs))
	m["harness.units"] = n
	tracedRate := ratio(float64(traced.events), traced.dur.Seconds())
	untracedRate := ratio(float64(untraced.events), untraced.dur.Seconds())
	m["trace.overhead_frac"] = 0
	if tracedRate > 0 && untracedRate > 0 {
		m["trace.overhead_frac"] = 1 - tracedRate/untracedRate
	}
	m["trace.unaccounted_share"] = ratio(float64(lt.uncovered), float64(lt.unitNs))
}
