package obs

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

func TestCounterGaugeVec(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	c.Add(3)
	c.Add(4)
	if got := c.Load(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	c.Store(100)
	if got := c.Load(); got != 100 {
		t.Fatalf("counter after Store = %d, want 100", got)
	}
	if r.Counter("events") != c {
		t.Fatalf("Counter is not get-or-create")
	}

	g := r.Gauge("interval")
	g.Set(-5)
	if got := g.Load(); got != -5 {
		t.Fatalf("gauge = %d, want -5", got)
	}

	v := r.Vec("loads", 3)
	v.Add(0, 10)
	v.Store(2, 32)
	if got := v.Sum(); got != 42 {
		t.Fatalf("vec sum = %d, want 42", got)
	}
	if got := v.Values(nil); len(got) != 3 || got[0] != 10 || got[1] != 0 || got[2] != 32 {
		t.Fatalf("vec values = %v, want [10 0 32]", got)
	}
	if r.Vec("loads", 99).Len() != 3 {
		t.Fatalf("Vec re-registration must keep the original size")
	}
}

func TestHistPowerOfTwoBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Hist("batch")
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1024} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["batch"]
	if s.Count != 8 || s.Sum != 0+1+2+3+4+7+8+1024 {
		t.Fatalf("hist count=%d sum=%d", s.Count, s.Sum)
	}
	// Buckets: 0→{0}, le=1→{1}, le=3→{2,3}, le=7→{4,7}, le=15→{8}, le=2047→{1024}.
	want := map[uint64]uint64{0: 1, 1: 1, 3: 2, 7: 2, 15: 1, 2047: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %v", s.Buckets, want)
	}
	for _, b := range s.Buckets {
		if want[b.Le] != b.N {
			t.Fatalf("bucket le=%d n=%d, want n=%d", b.Le, b.N, want[b.Le])
		}
	}
	if m := s.Mean(); m != float64(s.Sum)/8 {
		t.Fatalf("mean = %v", m)
	}
}

// TestSnapshotStableJSON: equal registry states must render to equal
// bytes (map keys marshal sorted), the property racemon's stats-parity
// checks rely on.
func TestSnapshotStableJSON(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("b").Add(2)
		r.Counter("a").Add(1)
		r.Gauge("z").Set(9)
		r.Vec("v", 2).Store(1, 7)
		r.Hist("h").Observe(5)
		return r
	}
	j1, err := json.Marshal(build().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(build().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON not stable:\n%s\n%s", j1, j2)
	}
	var decoded Snapshot
	if err := json.Unmarshal(j1, &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
}

// TestConcurrentSnapshot hammers a registry from writer and reader
// goroutines — meaningful under -race: every value crossing goroutines
// must be an atomic cell.
func TestConcurrentSnapshot(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("events")
			v := r.Vec("loads", 4)
			h := r.Hist("batch")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Add(1)
				v.Add(w, 2)
				h.Observe(uint64(i % 1000))
				r.Gauge("live").Set(int64(i))
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		if _, err := json.Marshal(s); err != nil {
			t.Errorf("marshal: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
	s := r.Snapshot()
	if s.Counter("events") != r.Vec("loads", 4).Sum()/2 {
		t.Fatalf("events=%d, loads sum/2=%d — writers disagree", s.Counter("events"), r.Vec("loads", 4).Sum()/2)
	}
}

// TestMergeSums: Merge adds counters and histograms across registries
// of one catalogue, bucket by bucket, and leaves gauges and vectors out.
func TestMergeSums(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	for i, r := range []*Registry{a, b} {
		r.Counter("c").Add(uint64(10 * (i + 1)))
		r.Gauge("g").Set(int64(i + 1))
		r.Vec("v", 2).Store(0, 5)
	}
	a.Hist("h").Observe(1)
	a.Hist("h").Observe(100)
	b.Hist("h").Observe(1)
	b.Hist("h").Observe(5)
	m := Merge(a.Snapshot(), b.Snapshot())
	if got := m.Counter("c"); got != 30 {
		t.Errorf("counter c = %d, want 30", got)
	}
	if len(m.Gauges) != 0 || len(m.Vectors) != 0 {
		t.Errorf("merged gauges %v and vectors %v, want none", m.Gauges, m.Vectors)
	}
	want := HistSnapshot{Count: 4, Sum: 107, Buckets: []HistBucket{{Le: 1, N: 2}, {Le: 7, N: 1}, {Le: 127, N: 1}}}
	if got := m.Histograms["h"]; !reflect.DeepEqual(got, want) {
		t.Errorf("histogram h = %+v, want %+v", got, want)
	}
}
