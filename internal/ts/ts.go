// Package ts implements exact rational timestamps.
//
// The operational model of Dolan et al. (fig. 1) draws timestamps from Q:
// totally ordered but dense, so that a write may always be placed between
// any two existing writes (Write-NA only requires the new timestamp to be
// later than the writing thread's frontier, not later than every entry in
// the history). Exact rationals keep that density without floating-point
// surprises.
package ts

import (
	"fmt"
	"math"
)

// Time is a rational timestamp num/den, always kept in lowest terms with
// den > 0. The zero value is the timestamp 0, which the paper assigns to
// the initial write of every location.
type Time struct {
	num int64
	den int64
}

// Zero is the timestamp of the initial writes (§3.1).
var Zero = Time{0, 1}

// New returns the rational num/den. It panics if den is zero; timestamps
// are constructed by the library from small integers, so overflow of the
// normalised form indicates a bug rather than an input error.
func New(num, den int64) Time {
	if den == 1 || den == -1 {
		return Time{num * den, 1} // an integer, sign flipped to den > 0
	}
	return reduce(num, den)
}

// reduce returns num/den in lowest terms with den > 0, panicking on a
// zero den. It is New's general case, kept out of line so that New
// inlines and an integer timestamp costs no call.
//
//go:noinline
func reduce(num, den int64) Time {
	if den == 0 {
		panic("ts: zero denominator")
	}
	if den < 0 {
		num, den = -num, -den
	}
	if g := gcd(abs(num), den); g > 1 {
		num /= g
		den /= g
	}
	return Time{num, den}
}

// FromInt returns the integer timestamp n.
func FromInt(n int64) Time { return Time{n, 1} }

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// Num returns the normalised numerator.
func (t Time) Num() int64 { return t.norm().num }

// Fraction returns the normalised numerator and denominator in a single
// call — the hot-path accessor for code that needs both (one norm instead
// of the two that separate Num/Den calls perform).
func (t Time) Fraction() (num, den int64) {
	n := t.norm()
	return n.num, n.den
}

// Den returns the normalised denominator (always positive).
func (t Time) Den() int64 {
	n := t.norm()
	return n.den
}

// norm maps the zero value onto 0/1 so that methods work on uninitialised
// Times.
func (t Time) norm() Time {
	if t.den == 0 {
		return Time{0, 1}
	}
	return t
}

// Cmp compares two timestamps, returning -1, 0 or +1. Comparison is by
// cross-multiplication; the library only ever manufactures timestamps with
// small numerators and denominators (bounded by the number of writes in an
// execution), so the products stay far from overflow. A defensive check
// panics if that assumption is ever violated.
func (t Time) Cmp(u Time) int {
	a, b := t.norm(), u.norm()
	l := mulCheck(a.num, b.den)
	r := mulCheck(b.num, a.den)
	switch {
	case l < r:
		return -1
	case l > r:
		return 1
	default:
		return 0
	}
}

func mulCheck(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if c/b != a {
		panic("ts: timestamp overflow")
	}
	return c
}

// Less reports whether t < u.
func (t Time) Less(u Time) bool { return t.Cmp(u) < 0 }

// LessEq reports whether t <= u.
func (t Time) LessEq(u Time) bool { return t.Cmp(u) <= 0 }

// Equal reports whether t == u as rationals.
func (t Time) Equal(u Time) bool { return t.Cmp(u) == 0 }

// Max returns the later of t and u; it is the per-location operation of
// the frontier join F1 ⊔ F2 (fig. 1).
func (t Time) Max(u Time) Time {
	if t.Cmp(u) >= 0 {
		return t.norm()
	}
	return u.norm()
}

// Between returns a timestamp strictly between t and u, which must satisfy
// t < u. Density of Q guarantees existence; the midpoint is used.
func Between(t, u Time) Time {
	if !t.Less(u) {
		panic(fmt.Sprintf("ts: Between(%v, %v) requires t < u", t, u))
	}
	a, b := t.norm(), u.norm()
	// (a + b) / 2 = (a.num*b.den + b.num*a.den) / (2*a.den*b.den)
	num := mulCheck(a.num, b.den) + mulCheck(b.num, a.den)
	den := mulCheck(2, mulCheck(a.den, b.den))
	return New(num, den)
}

// After returns a timestamp strictly greater than t (t+1).
func After(t Time) Time {
	n := t.norm()
	return New(n.num+n.den, n.den)
}

// String renders the timestamp as "n" or "n/d".
func (t Time) String() string {
	n := t.norm()
	if n.den == 1 {
		return fmt.Sprintf("%d", n.num)
	}
	return fmt.Sprintf("%d/%d", n.num, n.den)
}

// Float returns a float64 approximation, for diagnostics only.
func (t Time) Float() float64 {
	n := t.norm()
	if n.den == 0 {
		return math.NaN()
	}
	return float64(n.num) / float64(n.den)
}
