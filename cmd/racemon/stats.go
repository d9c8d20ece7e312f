package main

// Live run telemetry: the -stats-addr HTTP endpoint, the -stats-interval
// progress line, and the "stats" object of the -json summary all read
// the obs registry the monitor publishes into. Reads are
// atomic snapshots with bounded staleness (one GC window/batch), so
// scraping never perturbs the hot path.

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"localdrf/internal/obs"
	"localdrf/internal/obs/obshttp"
)

// telemetry serves the run's monitor registry to the three consumers
// above. The mode runner attaches the registry once it has built the
// monitor; the HTTP server may already be serving by then.
type telemetry struct {
	start time.Time
	reg   atomic.Pointer[obs.Registry]
}

var tel = &telemetry{start: time.Now()}

func (t *telemetry) attach(reg *obs.Registry) { t.reg.Store(reg) }

// snapshot is one atomic snapshot of the attached registry (empty
// before the monitor exists).
func (t *telemetry) snapshot() obs.Snapshot {
	if reg := t.reg.Load(); reg != nil {
		return reg.Snapshot()
	}
	return obs.Merge()
}

// statsDoc is the GET /stats response: the monitor's metric snapshot and
// the process uptime, in nanoseconds as racemond's. Counters are
// monotonic, so a client computes a rate from two scrapes; there is no
// server-side "since the previous scrape" state for concurrent scrapers
// to disturb.
type statsDoc struct {
	UptimeNs int64        `json:"uptime_ns"`
	Metrics  obs.Snapshot `json:"metrics"`
}

func (t *telemetry) stats() statsDoc {
	return statsDoc{UptimeNs: time.Since(t.start).Nanoseconds(), Metrics: t.snapshot()}
}

// startStats serves the telemetry endpoint (obshttp.Serve) on addr,
// exiting if it cannot bind: /stats is the JSON snapshot plus uptime,
// and /debug/vars carries the snapshot under "racemon". The server
// lives for the process; -stats-linger keeps the process alive after
// short runs so CI can scrape it.
func startStats(addr string) {
	expvar.Publish("racemon", expvar.Func(func() any { return tel.snapshot() }))
	bound, _, err := obshttp.Serve(addr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tel.stats()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}))
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "racemon: serving stats on http://%s/stats\n", bound)
}

// progressLoop prints a one-line telemetry digest to stderr every
// interval until stop closes.
func progressLoop(interval time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	prev := tel.snapshot()
	prevAt := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		s := tel.snapshot()
		now := time.Now()
		var rate float64
		if secs := now.Sub(prevAt).Seconds(); secs > 0 {
			rate = float64(s.Delta(prev).Counter("monitor.events")) / secs
		}
		line := fmt.Sprintf("racemon: t=%.1fs events=%d (%.2fM/s) races=%d ra_live=%d gc_sweeps=%d",
			now.Sub(tel.start).Seconds(), s.Counter("monitor.events"), rate/1e6,
			liveRaces(s), s.Gauge("monitor.ra.live"), s.Counter("monitor.gc.sweeps"))
		if occ := s.Vectors["pipeline.ring_occupancy"]; len(occ) > 0 {
			line += fmt.Sprintf(" rings=%v", occ)
		}
		fmt.Fprintln(os.Stderr, line)
		prev, prevAt = s, now
	}
}

// liveRaces reads the race count visible mid-run: a sharded monitor's
// back-ends publish per-shard tallies every batch, while monitor.races
// is only aggregated at Stats() barriers, so take the larger.
func liveRaces(s obs.Snapshot) uint64 {
	n := s.Counter("monitor.races")
	var v uint64
	for _, x := range s.Vectors["pipeline.backend_races"] {
		v += x
	}
	if v > n {
		n = v
	}
	return n
}
