package monitor

import (
	"bytes"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"localdrf/internal/prog"
	"localdrf/internal/ts"
)

// TestRAStoreDifferential drives a monitor's flat RA store through
// thousands of random publications, lookups, GC sweeps and resets, and
// checks it after every operation against a plain map model: the live
// set and every clock and writer, RAStats, and the snapshot bytes, which
// must depend only on the live set (not on slot order or index history)
// and must restore to the same state. Timestamps include negative
// numerators, denominators near MaxInt64, and non-normalised spellings
// of one rational; they are drawn from a small pool so they repeat, and
// a repeat must overwrite in place without changing the live count.
// Alternating grow and drain phases push the index through growth and
// shrinkage.
func TestRAStoreDifferential(t *testing.T) {
	const threads, loc = 4, 1
	decls := []LocDecl{{Name: "x", Kind: prog.NonAtomic}, {Name: "R", Kind: prog.ReleaseAcquire}}
	rng := rand.New(rand.NewPCG(13, 17))

	dens := []int64{1, 2, 3, 7, math.MaxInt64, math.MaxInt64 - 1}
	var pool []ts.Time
	for i := 0; i < 400; i++ {
		num := int64(rng.IntN(240)) - 120
		if i%10 == 0 {
			num = math.MinInt64/2 + int64(i)
		}
		pool = append(pool, ts.New(num, dens[rng.IntN(len(dens))]))
	}
	// Two spellings of -3/2: timeKey must normalise them to one key.
	pool = append(pool, ts.New(-6, 4), ts.New(3, -2))

	type msg struct {
		writer int32
		vc     []uint64
	}
	model := map[tsKey]msg{}
	var stats RAStats
	m := New(threads, decls)
	m.SetGCInterval(1 << 62) // sweeps happen only when the test asks
	st := &m.ra[loc]

	randClock := func(lo, hi int) []uint64 {
		c := make([]uint64, threads)
		for i := range c {
			c[i] = uint64(lo + rng.IntN(hi-lo))
		}
		return c
	}
	check := func(op int, what string) {
		t.Helper()
		if len(st.live) != len(model) {
			t.Fatalf("op %d (%s): %d live, model %d", op, what, len(st.live), len(model))
		}
		for _, tm := range pool {
			k := timeKey(tm)
			want, ok := model[k]
			i := st.find(k)
			if ok != (i >= 0) {
				t.Fatalf("op %d (%s): key %v live=%v, model %v", op, what, tm, i >= 0, ok)
			}
			if ok && (st.live[i].writer != want.writer || !slices.Equal(st.clock(i), want.vc)) {
				t.Fatalf("op %d (%s): key %v holds writer %d clock %v, model %d %v",
					op, what, tm, st.live[i].writer, st.clock(i), want.writer, want.vc)
			}
		}
		if got := m.RAStats(); got != stats {
			t.Fatalf("op %d (%s): RAStats %+v, model %+v", op, what, got, stats)
		}
		var a bytes.Buffer
		if err := m.Snapshot(&a); err != nil {
			t.Fatal(err)
		}
		// The same live set, inserted in a shuffled order into a fresh
		// store, must encode to the same bytes.
		alt := raStore{n: threads}
		keys := make([]tsKey, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, k := range keys {
			alt.put(k, model[k].writer, model[k].vc)
		}
		saved := *st
		*st = alt
		var b bytes.Buffer
		err := m.Snapshot(&b)
		*st = saved
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("op %d (%s): snapshot bytes depend on the store's history", op, what)
		}
		if op%64 == 0 {
			r, err := restore(bytes.NewReader(a.Bytes()))
			if err != nil {
				t.Fatalf("op %d (%s): restore: %v", op, what, err)
			}
			var c bytes.Buffer
			if err := r.Snapshot(&c); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), c.Bytes()) || r.RAStats() != stats || len(r.ra[loc].live) != len(model) {
				t.Fatalf("op %d (%s): restored monitor differs", op, what)
			}
		}
	}

	maxIndex, shrinks := 0, 0
	for op := 0; op < 6000; op++ {
		// Phases of 1000 ops: 700 publish-heavy ones that grow the live
		// set, then 300 that drain it with high frontiers.
		grow := op%1000 < 700
		what := ""
		switch r := rng.IntN(100); {
		case grow && r < 60 || !grow && r < 20:
			what = "put"
			tm := pool[rng.IntN(len(pool))]
			w := int32(rng.IntN(threads))
			vc := randClock(0, 64)
			m.publishRA(loc, tm, w, vc)
			k := timeKey(tm)
			if _, dup := model[k]; !dup {
				stats.Live++
				stats.Peak = max(stats.Peak, stats.Live)
			}
			model[k] = msg{writer: w, vc: slices.Clone(vc)}
			vc[w] = 1 << 40 // the store must have copied the clock
		case grow && r < 95 || !grow && r < 60:
			what = "find"
			k := timeKey(pool[rng.IntN(len(pool))])
			_, ok := model[k]
			if got := st.lookup(k); (got != nil) != ok || ok && !slices.Equal(got, model[k].vc) {
				t.Fatalf("op %d: lookup %v = %v, model %v", op, k, got, model[k].vc)
			}
		default:
			what = "sweep"
			lo := 0
			if !grow {
				lo = 40
			}
			for _, c := range m.clocks {
				copy(c, randClock(lo, lo+24))
			}
			frontier := slices.Clone(m.clocks[0])
			for _, c := range m.clocks {
				for u, v := range c {
					frontier[u] = min(frontier[u], v)
				}
			}
			for k, msg := range model {
				if msg.vc[msg.writer] <= frontier[msg.writer] {
					delete(model, k)
					stats.Live--
					stats.Collected++
				}
			}
			before := len(st.index)
			m.gc()
			if len(st.index) < before {
				shrinks++
			}
		}
		maxIndex = max(maxIndex, len(st.index))
		check(op, what)
	}
	if maxIndex < 256 || shrinks == 0 {
		t.Fatalf("index never exercised: max length %d, %d shrinks", maxIndex, shrinks)
	}
}
