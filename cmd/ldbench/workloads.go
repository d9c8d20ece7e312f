package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"localdrf/internal/monitor"
	"localdrf/internal/progsynth"
	"localdrf/internal/race"
	"localdrf/internal/schedgen"
)

// tracesPerSeed is how many traces a round of a workload runs: seeds
// S..S+3 of the run's -seed S.
const tracesPerSeed = 4

// workload is one input set and the job it drives. doc.go says why each
// was chosen.
type workload struct {
	name    string
	service bool // racemond sessions; otherwise the offline racemon -trace job
	events  int  // events per trace
	policy  schedgen.Policy
	skew    float64
	private bool // 6 thread-private locations per thread, 60% of data traffic
	pred    monitor.Predicate
	k       int
	shards  int
}

var workloads = []workload{
	{name: "trace-hb", events: 2_000_000, policy: schedgen.Bursty, shards: 1},
	{name: "trace-short64", events: 2_000_000, policy: schedgen.Bursty, pred: monitor.PredShort, k: 64, shards: 1},
	{name: "pipeline-zipf", events: 2_000_000, policy: schedgen.Bursty, skew: 1.3, shards: 2},
	{name: "service-ckpt", service: true, events: 500_000, policy: schedgen.Fair, private: true, shards: 1},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stepLayer and finishLayer name the engine's spans.
func (w workload) stepLayer() string {
	if w.shards > 1 {
		return "pipeline.step"
	}
	return "monitor.step"
}

func (w workload) finishLayer() string {
	if w.shards > 1 {
		return "pipeline.finish"
	}
	return "monitor.reports"
}

// program returns the generated program and schedule options of one
// trace.
func (w workload) program(seed int64, events int) (*monitor.Table, schedgen.Options) {
	cfg := progsynth.ScaledDefaults()
	if w.private {
		cfg.PrivateLocs, cfg.PrivatePct = 6, 60
	}
	cfg.Iters = cfg.IterationsFor(events)
	tb := monitor.NewTable(progsynth.Scaled(seed, cfg))
	return tb, schedgen.Options{Policy: w.policy, Seed: seed, MaxEvents: events, StaleReadPct: 10, LocSkew: w.skew}
}

// genTraces generates and wire-encodes the run's traces. The program
// under test only ever sees these bytes.
func (w workload) genTraces(seed int64, events int) ([][]byte, error) {
	out := make([][]byte, tracesPerSeed)
	for i := range out {
		tb, opt := w.program(seed+int64(i), events)
		var buf bytes.Buffer
		n, _, err := schedgen.Encode(&buf, tb.Program(), tb, opt, monitor.BinaryV2)
		if err != nil {
			return nil, fmt.Errorf("generate trace %d: %w", seed+int64(i), err)
		}
		if n != events {
			return nil, fmt.Errorf("generate trace %d: %d events, want %d", seed+int64(i), n, events)
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// outcome is what a correct unit must reproduce exactly for its trace.
type outcome struct {
	Events      uint64 `json:"events"`
	Races       int    `json:"races"`
	SHA256      string `json:"sha256"`
	RALive      int    `json:"ra_live"`
	RAPeak      int    `json:"ra_peak"`
	RACollected uint64 `json:"ra_collected"`
	WindowPeak  int    `json:"window_peak,omitempty"`
}

func opName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// reportsDigest hashes sorted reports one line each, in the form the
// service's done line spells them, so offline and service outcomes
// compare directly.
func reportsDigest(reports []race.Report) string {
	h := sha256.New()
	for _, r := range reports {
		fmt.Fprintf(h, "%s %d %d %s %s\n", r.Loc, r.ThreadI, r.ThreadJ, opName(r.WriteI), opName(r.WriteJ))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func newOutcome(events uint64, reports []race.Report, ra monitor.RAStats, win monitor.WindowStats) outcome {
	return outcome{Events: events, Races: len(reports), SHA256: reportsDigest(reports),
		RALive: ra.Live, RAPeak: ra.Peak, RACollected: ra.Collected, WindowPeak: win.Peak}
}

// reference monitors one trace with a sequential Monitor fed straight
// from the schedule generator: no wire encoding, no pipeline, no
// service. It is the answer every unit of that trace must match.
func (w workload) reference(seed int64, events int) (outcome, []race.Report, error) {
	tb, opt := w.program(seed, events)
	m := tb.NewMonitor()
	if w.pred != monitor.PredHB {
		m.SetPredicate(w.pred, w.k)
	}
	if _, err := schedgen.StreamBatch(tb.Program(), tb, opt, 0, func(b []monitor.Event) error {
		m.StepBatch(b)
		return nil
	}); err != nil {
		return outcome{}, nil, fmt.Errorf("reference for trace %d: %w", seed, err)
	}
	reports := m.Reports()
	return newOutcome(m.Events(), reports, m.RAStats(), m.WindowStats()), reports, nil
}

// goldenKey names one golden entry.
func goldenKey(w string, traceSeed int64, events int) string {
	return fmt.Sprintf("%s seed=%d events=%d", w, traceSeed, events)
}
