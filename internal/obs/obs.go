// Package obs is the zero-dependency telemetry substrate of the
// streaming race monitor: counters, gauges, per-worker counter vectors
// and power-of-two-bucket histograms, collected into a Registry that
// renders a stable JSON snapshot.
//
// The package exists because the monitor's hot path has no time for
// conventional metrics plumbing: at ~45M events/sec the per-event budget
// is ~20ns, so even one uncontended atomic read-modify-write per event
// (several ns) would blow the ≤2% instrumentation bound the monitor
// promises. The design splits the cost accordingly:
//
//   - Writers that own their state single-threaded (the sequential
//     Monitor, the pipeline front-end) count in PLAIN fields on the hot
//     path — an ordinary add, fractions of a nanosecond — and publish
//     them into the registry's atomic cells at natural amortisation
//     points (GC sweeps, batch boundaries, quiesce barriers). Readers
//     therefore see values at bounded staleness (at most one publish
//     interval behind), never a torn or racy read.
//
//   - Concurrent writers (pipeline back-ends, parse workers) each own
//     one cell of a Vec — a padded per-worker array of atomic cells, so
//     writers never share a cache line — and update it once per batch or
//     frame, not per event. Reads aggregate or enumerate the cells.
//
//   - Histograms bucket by power of two (bits.Len64), so Observe is one
//     atomic add into a fixed array; they are meant for per-batch and
//     per-barrier quantities (batch sizes, quiesce latencies, snapshot
//     sizes), never per-event ones.
//
// Metrics must never feed back into the instrumented computation: a
// registry is write-only from the monitor's point of view, and the
// monitor's reports and snapshots are byte-identical with metrics
// published, read concurrently, or ignored (asserted by the differential
// and metamorphic harnesses in internal/modeltest).
//
// Snapshot is safe to call from any goroutine at any time — every value
// is an atomic load — and marshals to JSON with deterministic key order
// (Go maps marshal sorted). Counters are monotonic, so a reader derives
// a rate from two snapshots. racemon and racemond serve snapshots over
// HTTP through the subpackage obshttp.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// pad is the cache-line padding wrapped around hot atomic cells so two
// cells touched by different goroutines never false-share. 64 bytes
// covers every CPU this repo targets; the atomic.Uint64 itself occupies
// the first word of the second line.
type pad [56]byte

// Counter is a monotonically increasing metric: a padded atomic cell.
// Single-owner writers should accumulate in a plain local and Store the
// running total at publish points; genuinely concurrent writers may Add.
type Counter struct {
	_ pad
	v atomic.Uint64
	_ pad
}

// Add increments the counter by n (atomic; safe from any goroutine).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store publishes an absolute running total (the single-writer pattern:
// count in a plain field, Store it at amortisation points).
func (c *Counter) Store(v uint64) { c.v.Store(v) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a point-in-time signed value (occupancy, interval, imbalance).
type Gauge struct {
	_ pad
	v atomic.Int64
	_ pad
}

// Set publishes the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// cell is one padded element of a Vec.
type cell struct {
	_ pad
	v atomic.Uint64
	_ pad
}

// Vec is a fixed-size vector of padded atomic cells, one per worker
// (pipeline back-end, parse worker, ring): each writer owns exactly one
// index, so updates never contend, and readers enumerate or sum the
// cells. Rendered in snapshots as a JSON array in index order.
type Vec struct {
	cells []cell
}

// Add atomically adds n to cell i.
func (v *Vec) Add(i int, n uint64) { v.cells[i].v.Add(n) }

// Store atomically publishes cell i.
func (v *Vec) Store(i int, x uint64) { v.cells[i].v.Store(x) }

// Load returns cell i.
func (v *Vec) Load(i int) uint64 { return v.cells[i].v.Load() }

// Len returns the number of cells.
func (v *Vec) Len() int { return len(v.cells) }

// Sum returns the sum of all cells (each loaded atomically; the sum is
// not a consistent cut, which is fine for monotone per-worker counters).
func (v *Vec) Sum() uint64 {
	var s uint64
	for i := range v.cells {
		s += v.cells[i].v.Load()
	}
	return s
}

// Values appends the cells to dst in index order.
func (v *Vec) Values(dst []uint64) []uint64 {
	for i := range v.cells {
		dst = append(dst, v.cells[i].v.Load())
	}
	return dst
}

// histBuckets is the number of power-of-two histogram buckets: bucket k
// counts observations v with bits.Len64(v) == k, i.e. bucket 0 holds
// v == 0 and bucket k ≥ 1 holds 2^(k-1) ≤ v < 2^k.
const histBuckets = 65

// Hist is a power-of-two-bucket histogram for latencies, sizes and batch
// lengths. Observe is one atomic add plus one atomic add to the sum —
// cheap enough for per-batch and per-barrier quantities (NOT per-event).
type Hist struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// HistSnapshot is the rendered state of a Hist: total count and sum plus
// the non-empty buckets, each labelled with its inclusive upper bound
// (2^k - 1).
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one non-empty power-of-two bucket.
type HistBucket struct {
	// Le is the bucket's inclusive upper bound (2^k - 1; 0 for the
	// zero-value bucket).
	Le uint64 `json:"le"`
	// N is the number of observations in the bucket.
	N uint64 `json:"n"`
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

func (h *Hist) snapshot() HistSnapshot {
	// Load count LAST so the invariant "sum of rendered buckets ≥ Count"
	// can only err towards extra bucket entries, never a Count exceeding
	// the buckets, under concurrent Observes.
	var s HistSnapshot
	for k := range h.buckets {
		if n := h.buckets[k].Load(); n > 0 {
			le := uint64(0)
			if k > 0 {
				le = 1<<uint(k) - 1
			}
			s.Buckets = append(s.Buckets, HistBucket{Le: le, N: n})
		}
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// Registry is a named collection of metrics. Metric constructors are
// get-or-create by name and may be called from any goroutine (they lock);
// the returned cells are then updated lock-free. Snapshot reads every
// metric with atomic loads and is safe concurrently with all updates.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	vecs     map[string]*Vec
	hists    map[string]*Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		vecs:     make(map[string]*Vec),
		hists:    make(map[string]*Hist),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Vec returns the n-cell vector registered under name, creating it on
// first use. A vector's size is fixed at creation; a later call with a
// different n returns the existing vector unchanged.
func (r *Registry) Vec(name string, n int) *Vec {
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.vecs[name]
	if !ok {
		v = &Vec{cells: make([]cell, n)}
		r.vecs[name] = v
	}
	return v
}

// Hist returns the histogram registered under name, creating it on first
// use.
func (r *Registry) Hist(name string) *Hist {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Hist{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is the rendered state of a registry at one instant: every
// metric read atomically, keyed by name. It marshals to JSON with
// deterministic (sorted) key order, so equal states render to equal
// bytes.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Vectors    map[string][]uint64     `json:"vectors,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot reads every registered metric (atomic loads; safe from any
// goroutine, concurrent with updates and registrations).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Load()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Load()
		}
	}
	if len(r.vecs) > 0 {
		s.Vectors = make(map[string][]uint64, len(r.vecs))
		for n, v := range r.vecs {
			s.Vectors[n] = v.Values(make([]uint64, 0, v.Len()))
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Histograms[n] = h.snapshot()
		}
	}
	return s
}

// Counter returns the named counter value (0 when absent) — the
// convenient read path for tests and report assembly.
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns the named gauge value (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Merge sums snapshots of registries that share a catalogue — one per
// session monitor, say — into their aggregate: each counter is the sum
// of its values, each histogram the sum of its counts, sums and
// buckets. Gauges and vectors describe one registry's state, not a
// quantity that adds up, and are left out.
func Merge(snaps ...Snapshot) Snapshot {
	var m Snapshot
	for _, s := range snaps {
		for n, v := range s.Counters {
			if m.Counters == nil {
				m.Counters = make(map[string]uint64)
			}
			m.Counters[n] += v
		}
		for n, h := range s.Histograms {
			if m.Histograms == nil {
				m.Histograms = make(map[string]HistSnapshot)
			}
			m.Histograms[n] = m.Histograms[n].add(h)
		}
	}
	return m
}

// add returns the histogram of both snapshots' observations, its
// buckets merged in bound order.
func (h HistSnapshot) add(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: h.Count + o.Count, Sum: h.Sum + o.Sum}
	a, b := h.Buckets, o.Buckets
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].Le < b[0].Le:
			out.Buckets = append(out.Buckets, a[0])
			a = a[1:]
		case len(a) == 0 || b[0].Le < a[0].Le:
			out.Buckets = append(out.Buckets, b[0])
			b = b[1:]
		default:
			out.Buckets = append(out.Buckets, HistBucket{Le: a[0].Le, N: a[0].N + b[0].N})
			a, b = a[1:], b[1:]
		}
	}
	return out
}
