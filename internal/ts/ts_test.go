package ts

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroValue(t *testing.T) {
	var z Time
	if !z.Equal(Zero) {
		t.Fatalf("zero value = %v, want 0", z)
	}
	if z.Num() != 0 || z.Den() != 1 {
		t.Fatalf("zero value num/den = %d/%d", z.Num(), z.Den())
	}
}

func TestNewNormalises(t *testing.T) {
	cases := []struct {
		num, den     int64
		wantN, wantD int64
	}{
		{1, 2, 1, 2},
		{2, 4, 1, 2},
		{-2, 4, -1, 2},
		{2, -4, -1, 2},
		{-2, -4, 1, 2},
		{0, 5, 0, 1},
		{6, 3, 2, 1},
	}
	for _, c := range cases {
		got := New(c.num, c.den)
		if got.Num() != c.wantN || got.Den() != c.wantD {
			t.Errorf("New(%d,%d) = %d/%d, want %d/%d", c.num, c.den, got.Num(), got.Den(), c.wantN, c.wantD)
		}
	}
}

// TestNewIntegers: New(n, 1) is FromInt(n) — same fields, so == holds —
// at the extremes too, where the reduction is skipped.
func TestNewIntegers(t *testing.T) {
	for _, n := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
		if got := New(n, 1); got != FromInt(n) {
			t.Errorf("New(%d, 1) = %#v, want FromInt(%d) = %#v", n, got, n, FromInt(n))
		}
	}
}

func TestNewPanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1, 0) did not panic")
		}
	}()
	New(1, 0)
}

func TestCmp(t *testing.T) {
	cases := []struct {
		a, b Time
		want int
	}{
		{New(1, 2), New(2, 3), -1},
		{New(2, 3), New(1, 2), 1},
		{New(1, 2), New(2, 4), 0},
		{New(-1, 2), New(1, 2), -1},
		{Zero, New(1, 1000), -1},
		{FromInt(3), FromInt(3), 0},
	}
	for _, c := range cases {
		if got := c.a.Cmp(c.b); got != c.want {
			t.Errorf("Cmp(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestBetween(t *testing.T) {
	a, b := New(1, 3), New(1, 2)
	m := Between(a, b)
	if !a.Less(m) || !m.Less(b) {
		t.Fatalf("Between(%v, %v) = %v not strictly inside", a, b, m)
	}
}

func TestBetweenPanicsWhenNotLess(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Between(1, 1) did not panic")
		}
	}()
	Between(FromInt(1), FromInt(1))
}

func TestAfter(t *testing.T) {
	for _, v := range []Time{Zero, New(7, 3), New(-5, 2)} {
		if !v.Less(After(v)) {
			t.Errorf("After(%v) = %v not greater", v, After(v))
		}
	}
}

func TestMax(t *testing.T) {
	a, b := New(1, 3), New(1, 2)
	if got := a.Max(b); !got.Equal(b) {
		t.Errorf("Max(%v,%v) = %v, want %v", a, b, got, b)
	}
	if got := b.Max(a); !got.Equal(b) {
		t.Errorf("Max(%v,%v) = %v, want %v", b, a, got, b)
	}
}

func TestString(t *testing.T) {
	if s := FromInt(4).String(); s != "4" {
		t.Errorf("String() = %q, want 4", s)
	}
	if s := New(3, 2).String(); s != "3/2" {
		t.Errorf("String() = %q, want 3/2", s)
	}
}

// randTime generates small rationals so that Between chains stay in range.
func randTime(r *rand.Rand) Time {
	return New(r.Int63n(41)-20, r.Int63n(12)+1)
}

func TestQuickOrderTotal(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(an, bn int16, ad, bd uint8) bool {
		a := New(int64(an), int64(ad)+1)
		b := New(int64(bn), int64(bd)+1)
		c := a.Cmp(b)
		// Antisymmetry and consistency of derived predicates.
		if c != -b.Cmp(a) {
			return false
		}
		if a.Less(b) != (c < 0) || a.LessEq(b) != (c <= 0) || a.Equal(b) != (c == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBetweenDense(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b := randTime(r), randTime(r)
		if a.Equal(b) {
			continue
		}
		if b.Less(a) {
			a, b = b, a
		}
		m := Between(a, b)
		if !a.Less(m) || !m.Less(b) {
			t.Fatalf("Between(%v,%v) = %v outside interval", a, b, m)
		}
	}
}

func TestQuickMaxIsJoin(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(an, bn, cn int16) bool {
		a, b, c := FromInt(int64(an)), FromInt(int64(bn)), FromInt(int64(cn))
		// Commutative, associative, idempotent, upper bound.
		if !a.Max(b).Equal(b.Max(a)) {
			return false
		}
		if !a.Max(b.Max(c)).Equal(a.Max(b).Max(c)) {
			return false
		}
		if !a.Max(a).Equal(a) {
			return false
		}
		j := a.Max(b)
		return a.LessEq(j) && b.LessEq(j)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Deep Between chains are what exploration produces when writes keep landing
// in the same gap; check density survives many iterations.
func TestBetweenChain(t *testing.T) {
	lo, hi := Zero, FromInt(1)
	for i := 0; i < 40; i++ {
		m := Between(lo, hi)
		if !lo.Less(m) || !m.Less(hi) {
			t.Fatalf("chain step %d: %v not in (%v,%v)", i, m, lo, hi)
		}
		hi = m
	}
}

// Fraction must agree with Num/Den (one normalisation instead of two —
// the RA-message map-key hot path in internal/monitor).
func TestFraction(t *testing.T) {
	for _, tc := range []Time{Zero, {}, FromInt(7), New(-6, 4), New(3, -9), New(10, 2)} {
		num, den := tc.Fraction()
		if num != tc.Num() || den != tc.Den() {
			t.Fatalf("Fraction(%v) = %d/%d, want %d/%d", tc, num, den, tc.Num(), tc.Den())
		}
		if den <= 0 {
			t.Fatalf("Fraction(%v): non-positive denominator %d", tc, den)
		}
	}
}

// BenchmarkFraction pins the point of the single-norm accessor against
// the separate Num/Den pair it replaced.
func BenchmarkFraction(b *testing.B) {
	t := New(35, 14)
	b.Run("fraction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			num, den := t.Fraction()
			_, _ = num, den
		}
	})
	b.Run("num-den", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			num, den := t.Num(), t.Den()
			_, _ = num, den
		}
	})
}
