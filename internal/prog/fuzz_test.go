package prog

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParse: Parse reads .litmus files from disk. It must never panic,
// every program it accepts must pass Validate, and it must be
// deterministic — parsing the same source twice gives equal programs.
// (Program.String is a listing, not parse syntax, so there is no
// print/parse round trip to assert.) Seeded from testdata/*.litmus.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("../../testdata/*.litmus")
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed corpus in testdata (glob: %v)", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			if p != nil {
				t.Fatalf("Parse returned a program with error %v", err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse accepted a program Validate rejects: %v", err)
		}
		q, err := Parse(src)
		if err != nil || !reflect.DeepEqual(p, q) {
			t.Fatalf("second Parse of the same source differs (err %v):\n%v\nvs\n%v", err, p, q)
		}
	})
}

// FuzzCompiledStep runs each thread of a parsed program through the
// compiled interpreter (Compiled.StepSilent) and the map-based
// reference (StepSilent) in lockstep, with read values drawn from the
// fuzz input (0 once it runs out). After every silent run and every
// completed access the two must agree on the pending kind, location and
// write value, the program counter, the register file (mapped back to
// names, zeros elided as in Key) and the budget error. Seeded from
// FuzzParse's corpus, a divergent `L: goto L` loop and a loop that
// takes every silent instruction both ways.
func FuzzCompiledStep(f *testing.F) {
	files, err := filepath.Glob("../../testdata/*.litmus")
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed corpus in testdata (glob: %v)", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), []byte{1, 0, 2})
	}
	f.Add("var x\nthread P0\nL:\n  goto L\nend\n", []byte{})
	ops := `var x y
atomic F
thread P0
L:
  r = x
  s := r * 3
  t := s + -1
  e := r == 2
  if e goto A
  y = t
A:
  z := r == 0
  ifz z goto L
  nop
  F = s
end
`
	f.Add(ops, []byte{2, 1, 2, 5, 0})
	f.Add(ops, []byte{0xff, 2, 0})
	const budget, maxActions = 64, 256
	f.Fuzz(func(t *testing.T, src string, reads []byte) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		locs := p.SortedLocs()
		index := make(map[Loc]int32, len(locs))
		for i, l := range locs {
			index[l] = int32(i)
		}
		locIndex := func(l Loc) (int32, bool) {
			i, ok := index[l]
			return i, ok
		}
		for ti, th := range p.Threads {
			c, err := Compile(th.Code, locIndex)
			if err != nil {
				t.Fatalf("thread %d: Compile: %v", ti, err)
			}
			st := NewThreadState()
			same := func(when string) {
				t.Helper()
				if c.pc != st.PC {
					t.Fatalf("thread %d %s: pc %d, reference %d", ti, when, c.pc, st.PC)
				}
				if c.regs[0] != 0 {
					t.Fatalf("thread %d %s: zero slot holds %d", ti, when, c.regs[0])
				}
				got := map[Reg]Val{}
				for slot, v := range c.regs[1:] {
					if v != 0 {
						got[c.names[slot+1]] = v
					}
				}
				want := map[Reg]Val{}
				for r, v := range st.Regs {
					if v != 0 {
						want[r] = v
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("thread %d %s: registers %v, reference %v", ti, when, got, want)
				}
			}
			for range maxActions {
				act, cerr := c.StepSilent(budget)
				var pend Pending
				st, pend, err = StepSilent(th.Code, st, budget)
				if (cerr == nil) != (err == nil) || (err != nil && cerr.Error() != err.Error()) {
					t.Fatalf("thread %d: error %v, reference %v", ti, cerr, err)
				}
				same("after silent steps")
				if err != nil || pend.Kind == OpHalted {
					if err == nil && act.Kind != OpHalted {
						t.Fatalf("thread %d: kind %v, reference halted", ti, act.Kind)
					}
					break
				}
				if act.Kind != pend.Kind || locs[act.Loc] != pend.Loc {
					t.Fatalf("thread %d: pending %v on %s, reference %v on %s", ti, act.Kind, locs[act.Loc], pend.Kind, pend.Loc)
				}
				if pend.Kind == OpWrite {
					if act.Val != pend.Val {
						t.Fatalf("thread %d: writes %d, reference %d", ti, act.Val, pend.Val)
					}
					c.ApplyWrite()
					st = ApplyWrite(st)
				} else {
					var v Val
					if len(reads) > 0 {
						v, reads = Val(int8(reads[0])), reads[1:]
					}
					c.ApplyRead(v)
					st = ApplyRead(st, pend, v)
				}
				same("after the access")
			}
		}
	})
}
