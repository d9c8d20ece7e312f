package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced unit, recorded around a call
// into one layer. All spans of a unit carry the unit's root span id;
// the root has parent 0. Times are nanoseconds since the run started.
type span struct {
	Unit   int    `json:"unit"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a run's spans in memory until the workload ends. The
// server records checkpoint spans from its own goroutines, hence the
// lock.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) add(unit, parent int, name string, start, end time.Time) {
	l.mu.Lock()
	l.next++
	l.spans = append(l.spans, span{Unit: unit, ID: l.next, Parent: parent, Name: name,
		Start: start.Sub(l.base).Nanoseconds(), End: end.Sub(l.base).Nanoseconds()})
	l.mu.Unlock()
}

// begin opens a traced unit that started at start. Its root span is
// added by end, once the unit's duration is known.
func (l *spanLog) begin(start time.Time) *unitTrace {
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	return &unitTrace{log: l, root: id, start: start}
}

// unitTrace records the spans of one unit. A nil *unitTrace is an
// untraced unit: its methods then read no clock and record nothing, so
// untraced units pay only a nil check per layer boundary.
type unitTrace struct {
	log   *spanLog
	root  int
	start time.Time
}

// child records a child span from start to now and returns now, the
// start of the next span.
func (u *unitTrace) child(name string, start time.Time) time.Time {
	if u == nil {
		return time.Time{}
	}
	end := time.Now()
	u.log.add(u.root, u.root, name, start, end)
	return end
}

func (u *unitTrace) childAt(name string, start, end time.Time) {
	if u != nil {
		u.log.add(u.root, u.root, name, start, end)
	}
}

// now reads the clock for a traced unit only.
func (u *unitTrace) now() time.Time {
	if u == nil {
		return time.Time{}
	}
	return time.Now()
}

func (u *unitTrace) end(end time.Time) {
	if u == nil {
		return
	}
	l := u.log
	l.mu.Lock()
	l.spans = append(l.spans, span{Unit: u.root, ID: u.root, Name: "unit",
		Start: u.start.Sub(l.base).Nanoseconds(), End: end.Sub(l.base).Nanoseconds()})
	l.mu.Unlock()
}

// layerTimes is the span breakdown of a set of traced units.
type layerTimes struct {
	units     int
	unitNs    int64            // summed root-span time
	uncovered int64            // root time covered by no child span
	total     map[string]int64 // summed child-span time per layer name
	// perUnit[name] holds, per unit, the summed time of that layer, for
	// per-unit percentiles.
	perUnit map[string][]float64
}

// analyze sums the spans per layer. Self time of a root is its duration
// minus the union of its children, so the checkpoint spans a server
// records while the client is still uploading are not counted twice.
func (l *spanLog) analyze() layerTimes {
	l.mu.Lock()
	defer l.mu.Unlock()
	lt := layerTimes{total: map[string]int64{}, perUnit: map[string][]float64{}}
	children := map[int][][2]int64{}
	perUnit := map[int]map[string]int64{}
	roots := map[int]span{}
	for _, s := range l.spans {
		if s.Parent == 0 {
			roots[s.ID] = s
			continue
		}
		children[s.Unit] = append(children[s.Unit], [2]int64{s.Start, s.End})
		lt.total[s.Name] += s.End - s.Start
		if perUnit[s.Unit] == nil {
			perUnit[s.Unit] = map[string]int64{}
		}
		perUnit[s.Unit][s.Name] += s.End - s.Start
	}
	for id, r := range roots {
		lt.units++
		lt.unitNs += r.End - r.Start
		lt.uncovered += r.End - r.Start - covered(r, children[id])
		for name, ns := range perUnit[id] {
			lt.perUnit[name] = append(lt.perUnit[name], float64(ns))
		}
	}
	return lt
}

// covered returns how much of root's interval the union of ivs covers.
func covered(root span, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := root.Start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], root.End)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

// share returns the named layers' summed time as a share of unit time.
func (lt layerTimes) share(names ...string) float64 {
	var ns int64
	for _, n := range names {
		ns += lt.total[n]
	}
	return ratio(float64(ns), float64(lt.unitNs))
}

// perUnitSeconds returns the named layers' mean time per unit.
func (lt layerTimes) perUnitSeconds(names ...string) float64 {
	var ns int64
	for _, n := range names {
		ns += lt.total[n]
	}
	return ratio(float64(ns)/1e9, float64(lt.units))
}

// p50ms returns the median per-unit time of one layer.
func (lt layerTimes) p50ms(name string) float64 {
	return percentile(append([]float64(nil), lt.perUnit[name]...), 0.5) / 1e6
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
