package axiomatic

// The herd-style candidate search shared with package hw: a per-location
// read-value domain for the local executions, then every rf × co
// assignment over the event graph they make.

import (
	"fmt"
	"maps"
	"slices"

	"localdrf/internal/prog"
	"localdrf/internal/rel"
)

// Access is an event as the candidate search sees it: the Seq-th event
// of thread Thread, or the initial write of Loc when Thread < 0.
type Access struct {
	Thread  int
	Seq     int
	Loc     prog.Loc
	IsWrite bool
	Val     prog.Val
}

// ProgramOrder relates each pair of events of one thread in Seq order.
// Initial writes belong to no thread.
func ProgramOrder(evs []Access) rel.Rel {
	po := rel.New(len(evs))
	for i, a := range evs {
		for j, b := range evs {
			if a.Thread >= 0 && a.Thread == b.Thread && a.Seq < b.Seq {
				po.Set(i, j)
			}
		}
	}
	return po
}

// Candidates visits every rf × co assignment of the event graph evs and
// reports whether visit stopped it by returning false. Each read may
// read from any write with its location and value, initial writes
// included; a read with no such write leaves the graph no candidate. co
// orders each location's initial write first, then a permutation of its
// other writes. rf varies slowest. Within rf the first read's choice
// varies fastest; within co the first location's permutation does, with
// locations in the order of their initial writes in evs. visit may keep
// rf and co: each co is fresh, and rf is shared only by the candidates
// that differ in co alone.
func Candidates(evs []Access, visit func(rf, co rel.Rel) bool) (stopped bool) {
	n := len(evs)
	var reads []int
	var rfFrom [][]int
	for i, r := range evs {
		if r.IsWrite {
			continue
		}
		var ws []int
		for j, w := range evs {
			if w.IsWrite && w.Loc == r.Loc && w.Val == r.Val {
				ws = append(ws, j)
			}
		}
		if len(ws) == 0 {
			return false
		}
		reads = append(reads, i)
		rfFrom = append(rfFrom, ws)
	}
	var inits []int
	var orders [][][]int
	for i, iw := range evs {
		if !iw.IsWrite || iw.Thread >= 0 {
			continue
		}
		var ws []int
		for j, w := range evs {
			if w.IsWrite && w.Thread >= 0 && w.Loc == iw.Loc {
				ws = append(ws, j)
			}
		}
		inits = append(inits, i)
		orders = append(orders, permutations(ws))
	}
	coRadix := lens(orders)
	return odometer(lens(rfFrom), func(rfd []int) bool {
		rf := rel.New(n)
		for k, r := range reads {
			rf.Set(rfFrom[k][rfd[k]], r)
		}
		return !odometer(coRadix, func(cod []int) bool {
			co := rel.New(n)
			for li, iw := range inits {
				chain := append([]int{iw}, orders[li][cod[li]]...)
				for a := range chain {
					for _, b := range chain[a+1:] {
						co.Set(chain[a], b)
					}
				}
			}
			return visit(rf, co)
		})
	})
}

// odometer visits every digit vector of the mixed radix, the first digit
// varying fastest, and reports whether visit stopped it by returning
// false. A zero radix has no vectors; an empty radix has one.
func odometer(radix []int, visit func(digits []int) bool) (stopped bool) {
	if slices.Contains(radix, 0) {
		return false
	}
	d := make([]int, len(radix))
	for {
		if !visit(d) {
			return true
		}
		i := 0
		for ; i < len(d); i++ {
			if d[i]++; d[i] < radix[i] {
				break
			}
			d[i] = 0
		}
		if i == len(d) {
			return false
		}
	}
}

func lens[T any](xss [][]T) []int {
	out := make([]int, len(xss))
	for i, xs := range xss {
		out[i] = len(xs)
	}
	return out
}

// permutations returns all orderings of xs (including the empty one for
// empty input).
func permutations(xs []int) [][]int {
	if len(xs) == 0 {
		return [][]int{{}}
	}
	var out [][]int
	var recur func(cur []int, rest []int)
	recur = func(cur, rest []int) {
		if len(rest) == 0 {
			out = append(out, slices.Clone(cur))
			return
		}
		for i := range rest {
			next := make([]int, 0, len(rest)-1)
			next = append(next, rest[:i]...)
			next = append(next, rest[i+1:]...)
			recur(append(cur, rest[i]), next)
		}
	}
	recur(nil, xs)
	return out
}

// Domain maps each location to the values a read of it may return.
type Domain map[prog.Loc]map[prog.Val]bool

// Vals returns the values a read of l may return, in increasing order.
func (d Domain) Vals(l prog.Loc) []prog.Val { return slices.Sorted(maps.Keys(d[l])) }

// ValueDomain computes, per location of locs, a finite over-approximation
// of the values a read may return: the initial value plus every value a
// store to that location can produce given reads drawn from the domain,
// iterated to a fixpoint. Each round calls writes, which runs the local
// executions with reads drawn from dom and calls store for every write
// they make. Keeping the domain per-location is essential: a global
// domain fails to converge on chains like y = x+1 (each round would grow
// the read values of x with values only ever written to y).
func ValueDomain(locs map[prog.Loc]prog.LocKind, writes func(dom Domain, store func(prog.Loc, prog.Val)) error) (Domain, error) {
	dom := Domain{}
	for l := range locs {
		dom[l] = map[prog.Val]bool{prog.V0: true}
	}
	for round := 0; round < 16; round++ {
		grew := false
		err := writes(dom, func(l prog.Loc, v prog.Val) {
			if !dom[l][v] {
				dom[l][v] = true
				grew = true
			}
		})
		if err != nil {
			return nil, err
		}
		if !grew {
			return dom, nil
		}
	}
	return nil, fmt.Errorf("axiomatic: value domain did not converge (unbounded value feedback loop?)")
}
