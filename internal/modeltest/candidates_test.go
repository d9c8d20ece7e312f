package modeltest

import (
	"crypto/sha256"
	"fmt"
	"io"
	"testing"

	"localdrf/internal/axiomatic"
	"localdrf/internal/compile"
	"localdrf/internal/hw"
	"localdrf/internal/litmus"
	"localdrf/internal/prog"
	"localdrf/internal/progsynth"
)

// TestCandidatesPinned pins the herd-style candidate search that the §6
// axiomatic model and the §7 hardware models share: the SHA-256 of every
// candidate's Describe(), in visit order. A change to which candidates
// exist, to their event numbering or to the order they are visited in
// (which decides the counterexample a failed soundness check prints
// first) changes the hash. The programs are the litmus catalogue, the
// first nine random programs (seed 9 alone has 36,864 hardware
// candidates per scheme) and SameValue. The catalogue writes distinct
// values to each location, so each of its reads has one rf choice.
// SameValue gives a read two rf choices and its location two co orders,
// so it pins that rf varies slower than co.
func TestCandidatesPinned(t *testing.T) {
	progs := []*prog.Program{prog.NewProgram("SameValue").
		Vars("x").
		Thread("P0").StoreI("x", 1).Done().
		Thread("P1").StoreI("x", 1).Done().
		Thread("P2").Load("r0", "x").Done().
		MustBuild()}
	for _, tc := range litmus.Suite() {
		progs = append(progs, tc.Prog)
	}
	for seed := int64(0); seed < 9; seed++ {
		progs = append(progs, progsynth.Random(seed, progsynth.Config{}))
	}

	ax := sha256.New()
	axN := 0
	for _, p := range progs {
		fmt.Fprintf(ax, "== %s\n", p.Name)
		err := axiomatic.EnumerateCandidates(p, func(x *axiomatic.Execution) bool {
			io.WriteString(ax, x.Describe())
			axN++
			return true
		})
		if err != nil {
			t.Fatalf("%s: axiomatic: %v", p.Name, err)
		}
	}

	hwh := sha256.New()
	hwN := 0
	all := func(*hw.Execution) bool { return true }
	for _, s := range []compile.Scheme{compile.X86, compile.ARMBal, compile.ARMFbs, compile.ARMSra} {
		for _, p := range progs {
			hp, err := compile.Lower(p, s)
			if err != nil {
				t.Fatalf("%s/%v: lower: %v", p.Name, s, err)
			}
			fmt.Fprintf(hwh, "== %s\n", hp.Name)
			err = hw.Enumerate(hp, all, func(x *hw.Execution) bool {
				io.WriteString(hwh, x.Describe())
				hwN++
				return true
			})
			if err != nil {
				t.Fatalf("%s: hw: %v", hp.Name, err)
			}
		}
	}

	for _, c := range []struct {
		name      string
		n, wantN  int
		sum, want string
	}{
		{"axiomatic", axN, 580, fmt.Sprintf("%x", ax.Sum(nil)),
			"326f0a5a1bef6eea1bda3b2ee083767b687c4ad932609da83f408fb865541cb0"},
		{"hw", hwN, 7936, fmt.Sprintf("%x", hwh.Sum(nil)),
			"95bcd8712c20fde195970db6bf62f5e5b21667f1de4fd0f705751068a417cde5"},
	} {
		if c.n != c.wantN || c.sum != c.want {
			t.Errorf("%s: %d candidates, sha256 %s; want %d, %s", c.name, c.n, c.sum, c.wantN, c.want)
		}
	}
}
