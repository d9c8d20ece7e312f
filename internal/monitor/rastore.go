package monitor

import (
	"cmp"
	"hash/maphash"
	"math/bits"
	"slices"

	"localdrf/internal/ts"
)

// tsKey is the canonical key of an RA timestamp (normalised rational,
// so equal timestamps collide regardless of representation).
type tsKey struct{ num, den int64 }

func timeKey(t ts.Time) tsKey {
	num, den := t.Fraction() // one normalisation for both components
	return tsKey{num, den}
}

// raKey keys the RA index hash. It is drawn from a hash/maphash seed
// once per process, so a peer that chooses the timestamps of a trace
// cannot precompute keys that pile into one probe chain.
var raKey = func() (k [3]uint64) {
	seed := maphash.MakeSeed()
	for i := range k {
		k[i] = maphash.Comparable(seed, i)
	}
	return k
}()

// raHash hashes a timestamp with the keyed multiply-fold mix of the Go
// runtime's fallback hash (wyhash): cheap enough to inline, and keyed so
// collisions cannot be chosen in advance.
func raHash(k tsKey) uint32 {
	return uint32(mix(raKey[0], mix(uint64(k.num)^raKey[1], uint64(k.den)^raKey[2])))
}

func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// raEntry describes one live release-acquire message: its timestamp, its
// writer thread, whose clock entry is the write event's own index (the
// GC criterion), and the timestamp's hash, kept so rebuilding the index
// never rehashes.
type raEntry struct {
	key    tsKey
	writer int32
	hash   uint32
}

// minRAIndex is the smallest index table a store keeps (a power of two).
const minRAIndex = 8

// raStore holds the retained release-acquire messages of one location in
// flat form. live[i] describes slot i, whose published clock occupies
// clocks[i*n:(i+1)*n] of the arena; index is an open-addressed table
// (linear probing, length a power of two, at most half full) mapping a
// timestamp to its slot+1, 0 marking an empty cell. Messages leave only
// through sweep, which compacts the slots and rebuilds the index, so the
// table never needs tombstones. Slots, arena and index keep their
// capacity across sweeps, so steady-state publication allocates
// nothing.
type raStore struct {
	n      int // clock width: the monitor's thread count
	live   []raEntry
	clocks []uint64
	index  []int32
}

// clock returns slot i's published clock (capacity-capped, so appending
// to it can never overwrite the next slot).
func (s *raStore) clock(i int) []uint64 {
	return s.clocks[i*s.n : (i+1)*s.n : (i+1)*s.n]
}

// find returns the slot holding timestamp k, or -1.
func (s *raStore) find(k tsKey) int {
	if len(s.index) == 0 {
		return -1
	}
	mask := len(s.index) - 1
	for h := int(raHash(k)) & mask; ; h = (h + 1) & mask {
		j := s.index[h]
		if j == 0 {
			return -1
		}
		if s.live[j-1].key == k {
			return int(j - 1)
		}
	}
}

// lookup returns the clock published at timestamp k, or nil if no live
// message carries it — the reads-from edge of a ReadRA.
func (s *raStore) lookup(k tsKey) []uint64 {
	if i := s.find(k); i >= 0 {
		return s.clock(i)
	}
	return nil
}

// put publishes clock c by writer at timestamp k. A timestamp already
// live is overwritten in place (clock and writer); otherwise a slot is
// appended. It reports whether k was new.
func (s *raStore) put(k tsKey, writer int32, c []uint64) bool {
	h := int(raHash(k))
	if len(s.index) > 0 {
		mask := len(s.index) - 1
		for p := h & mask; ; p = (p + 1) & mask {
			j := s.index[p]
			if j == 0 {
				break
			}
			if e := &s.live[j-1]; e.key == k {
				e.writer = writer
				copy(s.clock(int(j-1)), c)
				return false
			}
		}
	}
	if 2*(len(s.live)+1) > len(s.index) {
		s.rehash(indexSize(len(s.live) + 1))
	}
	mask := len(s.index) - 1
	p := h & mask
	for s.index[p] != 0 {
		p = (p + 1) & mask
	}
	s.index[p] = int32(len(s.live) + 1)
	s.live = append(s.live, raEntry{key: k, writer: writer, hash: uint32(h)})
	s.clocks = append(s.clocks, c...)
	return true
}

// sweep drops every message whose writer entry is at or below the
// frontier min (keeping it iff clock[writer] > min[writer]) in one
// compacting pass, preserving the order of the survivors, and rebuilds
// the index. It returns how many it dropped. The index is sized for the
// live count before the sweep, the demand of the window just ended, so a
// steady stream refills it without regrowing while a quieter one lets it
// shrink.
func (s *raStore) sweep(min []uint64) int {
	n, w, pre := s.n, 0, len(s.live)
	for i, e := range s.live {
		if s.clocks[i*n+int(e.writer)] <= min[e.writer] {
			continue
		}
		if w != i {
			s.live[w] = e
			copy(s.clocks[w*n:(w+1)*n], s.clocks[i*n:(i+1)*n])
		}
		w++
	}
	dropped := len(s.live) - w
	if dropped > 0 {
		s.live = s.live[:w]
		s.clocks = s.clocks[:w*n]
		s.rehash(indexSize(pre))
	}
	return dropped
}

// indexSize is the table length for live messages: the smallest power of
// two (at least minRAIndex) that keeps the table at most half full.
func indexSize(live int) int {
	size := minRAIndex
	for size < 2*live {
		size <<= 1
	}
	return size
}

// rehash rebuilds the index at the given power-of-two length, reusing the
// table's backing array when it is large enough.
func (s *raStore) rehash(size int) {
	if cap(s.index) >= size {
		s.index = s.index[:size]
		clear(s.index)
	} else {
		s.index = make([]int32, size)
	}
	mask := size - 1
	for i := range s.live {
		p := int(s.live[i].hash) & mask
		for s.index[p] != 0 {
			p = (p + 1) & mask
		}
		s.index[p] = int32(i + 1)
	}
}

// sortedSlots appends the live slots to buf ordered by timestamp
// numerator, then denominator — the snapshot encoding's canonical order.
func (s *raStore) sortedSlots(buf []int32) []int32 {
	for i := range s.live {
		buf = append(buf, int32(i))
	}
	slices.SortFunc(buf, func(a, b int32) int {
		ka, kb := s.live[a].key, s.live[b].key
		if c := cmp.Compare(ka.num, kb.num); c != 0 {
			return c
		}
		return cmp.Compare(ka.den, kb.den)
	})
	return buf
}
