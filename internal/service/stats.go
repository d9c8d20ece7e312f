package service

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"localdrf/internal/obs"
)

// The service's observability rides the existing obs/stats surface —
// one registry per session monitor (the same monitor.*/pipeline.* cells
// racemon serves) plus the server's service.* registry, behind one
// /stats handler that cmd/racemond serves through obshttp.Serve, the
// endpoint racemon serves too. No second metrics path.

// sessionStats is one session's row in the /stats listing.
type sessionStats struct {
	Session  string `json:"session"`
	Attached bool   `json:"attached"`
	Events   uint64 `json:"events"`
	Resumed  int    `json:"resumed,omitempty"`
	IdleNs   int64  `json:"idle_ns,omitempty"`
}

// statsDoc is the aggregate /stats payload. Counters are monotonic and
// carry no rates: a client derives a rate from two scrapes and their
// uptime_ns (racemon's /stats reports the same field), so concurrent
// scrapers cannot disturb each other's windows.
type statsDoc struct {
	UptimeNs int64          `json:"uptime_ns"`
	Sessions []sessionStats `json:"sessions"`
	// Service is the service.* registry snapshot; Monitors merges the
	// monitor.*/pipeline.* registries of every attached session (the
	// aggregate ingest view — counters sum across sessions).
	Service  obs.Snapshot `json:"service"`
	Monitors obs.Snapshot `json:"monitors"`
}

// sessionDoc is the per-session /stats?session=ID payload.
type sessionDoc struct {
	sessionStats
	// Metrics is the session monitor's registry snapshot — only while the
	// session is attached (a detached session's state lives in its
	// checkpoint ring, not in memory).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// statsSnapshot collects the aggregate view under the server lock.
func (s *Server) statsSnapshot() statsDoc {
	s.mu.Lock()
	regs := make([]*obs.Registry, 0, len(s.sessions))
	doc := statsDoc{UptimeNs: time.Since(s.start).Nanoseconds(), Sessions: []sessionStats{}}
	now := time.Now()
	for _, sess := range s.sessions {
		row := sessionStats{Session: sess.id, Attached: sess.attached, Events: sess.events, Resumed: sess.resumed}
		if !sess.attached {
			row.IdleNs = now.Sub(sess.lastSeen).Nanoseconds()
		}
		doc.Sessions = append(doc.Sessions, row)
		if sess.reg != nil {
			regs = append(regs, sess.reg)
		}
	}
	s.mu.Unlock()
	sort.Slice(doc.Sessions, func(i, j int) bool { return doc.Sessions[i].Session < doc.Sessions[j].Session })
	doc.Service = s.reg.Snapshot()
	snaps := make([]obs.Snapshot, 0, len(regs))
	for _, reg := range regs {
		snaps = append(snaps, reg.Snapshot())
	}
	doc.Monitors = obs.Merge(snaps...)
	return doc
}

// StatsHandler serves the service's telemetry:
//
//	GET /stats              aggregate: uptime, session table, service.*
//	                        cells, merged per-session monitor cells
//	GET /stats?session=ID   one session's row + its live registry
//
// cmd/racemond passes it to obshttp.Serve, which mounts it at /stats
// beside expvar and pprof.
func (s *Server) StatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if id := r.URL.Query().Get("session"); id != "" {
			s.mu.Lock()
			sess := s.sessions[id]
			var doc *sessionDoc
			if sess != nil {
				doc = &sessionDoc{sessionStats: sessionStats{
					Session: sess.id, Attached: sess.attached, Events: sess.events, Resumed: sess.resumed,
				}}
				if !sess.attached {
					doc.IdleNs = time.Since(sess.lastSeen).Nanoseconds()
				}
				reg := sess.reg
				s.mu.Unlock()
				if reg != nil {
					snap := reg.Snapshot()
					doc.Metrics = &snap
				}
			} else {
				s.mu.Unlock()
			}
			if doc == nil {
				http.Error(w, `{"error":"unknown session"}`, http.StatusNotFound)
				return
			}
			enc.Encode(doc)
			return
		}
		enc.Encode(s.statsSnapshot())
	})
}
