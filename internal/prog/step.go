package prog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ThreadState is the expression part of a thread's configuration: a
// program counter into the thread's code and the register file. The
// frontier lives with the machine, not here (fig. 1a keeps them paired but
// the memory model packages own the frontier representation).
type ThreadState struct {
	PC   int
	Regs map[Reg]Val
}

// NewThreadState returns the initial state (pc 0, all registers 0).
func NewThreadState() ThreadState {
	return ThreadState{Regs: map[Reg]Val{}}
}

// Clone returns an independent copy.
func (s ThreadState) Clone() ThreadState {
	regs := make(map[Reg]Val, len(s.Regs))
	for k, v := range s.Regs {
		regs[k] = v
	}
	return ThreadState{PC: s.PC, Regs: regs}
}

// Reg returns the value of a register; unwritten registers read as 0.
func (s ThreadState) Reg(r Reg) Val { return s.Regs[r] }

// Eval evaluates an operand in this state.
func (s ThreadState) Eval(o Operand) Val {
	if o.IsReg {
		return s.Regs[o.Reg]
	}
	return o.Imm
}

// Halted reports whether the thread has run off the end of its code.
func (s ThreadState) Halted(code []Instr) bool {
	return s.PC < 0 || s.PC >= len(code)
}

// Key renders the state deterministically for hashing.
func (s ThreadState) Key() string {
	regs := make([]string, 0, len(s.Regs))
	for r, v := range s.Regs {
		if v != 0 {
			regs = append(regs, fmt.Sprintf("%s=%d", r, v))
		}
	}
	sort.Strings(regs)
	return fmt.Sprintf("pc%d[%s]", s.PC, strings.Join(regs, ","))
}

// AppendCanonical appends a compact binary encoding of the state (pc,
// then the nonzero registers in name order) to dst. Zero registers are
// elided, as in Key: "never written" and "written zero" are
// observationally identical. Equal encodings iff equal states. This is
// the engine's per-state hot path, so the register names are gathered
// into a stack buffer and insertion-sorted (register files are tiny)
// rather than allocated and sort.Strings'd.
func (s ThreadState) AppendCanonical(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(s.PC))
	var stack [8]Reg
	names := stack[:0]
	for r, v := range s.Regs {
		if v != 0 {
			names = append(names, r)
		}
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, r := range names {
		dst = binary.AppendUvarint(dst, uint64(len(r)))
		dst = append(dst, r...)
		dst = binary.AppendVarint(dst, int64(s.Regs[r]))
	}
	return dst
}

// OpKind classifies the pending operation of a thread.
type OpKind int

const (
	// OpHalted: the thread has no more instructions.
	OpHalted OpKind = iota
	// OpRead: the next instruction is a load (an ℓ:read x action; the
	// value is chosen by the memory, per proposition 4).
	OpRead
	// OpWrite: the next instruction is a store (an ℓ:write x action).
	OpWrite
)

// Pending describes the next memory action of a thread whose silent steps
// have been exhausted.
type Pending struct {
	Kind OpKind
	Loc  Loc
	// Val is the value to be written (writes only).
	Val Val
	// Dst is the register a read will populate (reads only).
	Dst Reg
}

// MaxSilentStepsHint is a generous default budget for StepSilent; litmus
// programs finish their silent runs in a handful of steps, so exceeding it
// indicates a divergent silent loop.
const MaxSilentStepsHint = 10_000

// errSilentBudget is the error of a silent run that exceeds its step
// budget, in both interpreters.
var errSilentBudget = errors.New("prog: silent step budget exceeded (divergent loop?)")

// StepSilent advances the thread through consecutive silent transitions
// (e —ϵ→ e′) until it reaches a load, a store, or halts, returning the
// resulting state and the pending action. maxSteps guards against
// divergent silent loops (e.g. `L: goto L`); exceeding it returns an
// error rather than spinning. The input state is not modified.
//
// This is the reference interpreter, over the map-based ThreadState the
// exhaustive explorers need: they expand one state many ways, so they
// clone it (Clone), and they intern states by name (Key,
// AppendCanonical). The streaming schedule generator (internal/schedgen)
// runs one schedule over millions of events and needs none of that; it
// runs each thread as a Compiled, the same semantics over a register
// file of slots, and FuzzCompiledStep holds the two in lockstep.
func StepSilent(code []Instr, st ThreadState, maxSteps int) (ThreadState, Pending, error) {
	s := st.Clone()
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			return s, Pending{}, errSilentBudget
		}
		if s.Halted(code) {
			return s, Pending{Kind: OpHalted}, nil
		}
		switch in := code[s.PC].(type) {
		case Load:
			return s, Pending{Kind: OpRead, Loc: in.Src, Dst: in.Dst}, nil
		case Store:
			return s, Pending{Kind: OpWrite, Loc: in.Dst, Val: s.Eval(in.Src)}, nil
		case Mov:
			s.Regs[in.Dst] = s.Eval(in.Src)
			s.PC++
		case Add:
			s.Regs[in.Dst] = s.Eval(in.A) + s.Eval(in.B)
			s.PC++
		case Mul:
			s.Regs[in.Dst] = s.Eval(in.A) * s.Eval(in.B)
			s.PC++
		case CmpEq:
			if s.Eval(in.A) == s.Eval(in.B) {
				s.Regs[in.Dst] = 1
			} else {
				s.Regs[in.Dst] = 0
			}
			s.PC++
		case Jmp:
			s.PC = in.Target
		case JmpNZ:
			if s.Regs[in.Cond] != 0 {
				s.PC = in.Target
			} else {
				s.PC++
			}
		case JmpZ:
			if s.Regs[in.Cond] == 0 {
				s.PC = in.Target
			} else {
				s.PC++
			}
		case Nop:
			s.PC++
		default:
			return s, Pending{}, fmt.Errorf("prog: unknown instruction %T", in)
		}
	}
}

// ApplyRead completes a pending read with the value supplied by memory.
// This is where proposition 4 holds: any value is accepted.
func ApplyRead(st ThreadState, p Pending, v Val) ThreadState {
	s := st.Clone()
	s.Regs[p.Dst] = v
	s.PC++
	return s
}

// ApplyWrite completes a pending write (the memory consumed the value).
func ApplyWrite(st ThreadState) ThreadState {
	s := st.Clone()
	s.PC++
	return s
}

// Compiled is one thread's code compiled for the streaming interpreter,
// with the thread's state. Each instruction is an opcode whose register
// operands are slots of one register file (regs) and whose immediates
// are inline; a load or store carries the dense index of its location,
// resolved once at compile time. So a silent run hashes no register or
// location name, which the map-based StepSilent does on every step.
type Compiled struct {
	code  []cinstr
	names []Reg // names[slot] is the register in that slot (slot ≥ 1)
	pc    int
	regs  []Val // slot 0 is always 0 (see operand)
}

type opcode uint8

const (
	opLoad opcode = iota
	opStore
	opMov
	opAdd
	opMul
	opCmpEq
	opJmp
	opJmpNZ
	opJmpZ
	opNop
)

// operand is a compiled Operand, read as regs[slot] + imm: a register
// is its slot with imm 0, an immediate is the zero slot 0 plus its
// value, so an evaluation has no branch.
type operand struct {
	slot int32
	imm  Val
}

// cinstr is one compiled instruction.
type cinstr struct {
	op opcode
	// dst is the slot an instruction writes (a load's register too), or
	// the slot JmpNZ and JmpZ test.
	dst int32
	// arg is a jump's target, or the location of a load or store.
	arg  int32
	a, b operand
}

// Compile compiles one thread's code, resolving each load's and store's
// location to a dense index through locIndex. Registers take slots in
// order of first mention. The result starts at pc 0 with every register
// 0, as NewThreadState does.
func Compile(code []Instr, locIndex func(Loc) (int32, bool)) (*Compiled, error) {
	c := &Compiled{code: make([]cinstr, len(code)), names: []Reg{""}}
	slots := map[Reg]int32{}
	slot := func(r Reg) int32 {
		s, ok := slots[r]
		if !ok {
			s = int32(len(c.names))
			slots[r] = s
			c.names = append(c.names, r)
		}
		return s
	}
	opnd := func(o Operand) operand {
		if o.IsReg {
			return operand{slot: slot(o.Reg)}
		}
		return operand{imm: o.Imm}
	}
	loc := func(l Loc) (int32, error) {
		i, ok := locIndex(l)
		if !ok {
			return 0, fmt.Errorf("prog: undeclared location %q", l)
		}
		return i, nil
	}
	for pc, in := range code {
		var ci cinstr
		var err error
		switch in := in.(type) {
		case Load:
			ci = cinstr{op: opLoad, dst: slot(in.Dst)}
			ci.arg, err = loc(in.Src)
		case Store:
			ci = cinstr{op: opStore, a: opnd(in.Src)}
			ci.arg, err = loc(in.Dst)
		case Mov:
			ci = cinstr{op: opMov, dst: slot(in.Dst), a: opnd(in.Src)}
		case Add:
			ci = cinstr{op: opAdd, dst: slot(in.Dst), a: opnd(in.A), b: opnd(in.B)}
		case Mul:
			ci = cinstr{op: opMul, dst: slot(in.Dst), a: opnd(in.A), b: opnd(in.B)}
		case CmpEq:
			ci = cinstr{op: opCmpEq, dst: slot(in.Dst), a: opnd(in.A), b: opnd(in.B)}
		case Jmp:
			ci = cinstr{op: opJmp, arg: int32(in.Target)}
		case JmpNZ:
			ci = cinstr{op: opJmpNZ, dst: slot(in.Cond), arg: int32(in.Target)}
		case JmpZ:
			ci = cinstr{op: opJmpZ, dst: slot(in.Cond), arg: int32(in.Target)}
		case Nop:
			ci = cinstr{op: opNop}
		default:
			err = fmt.Errorf("prog: unknown instruction %T", in)
		}
		if err != nil {
			return nil, fmt.Errorf("pc %d: %w", pc, err)
		}
		c.code[pc] = ci
	}
	c.regs = make([]Val, len(c.names))
	return c, nil
}

// Action is the pending memory action of a Compiled thread.
type Action struct {
	Kind OpKind
	// Loc is the dense index of the location (reads and writes).
	Loc int32
	// Val is the value to be written (writes only).
	Val Val
}

// StepSilent is the package-level StepSilent on compiled code: it runs
// the thread's silent steps in place, up to its next load or store (left
// at the program counter) or its halt, within the same budget and with
// the same error.
func (c *Compiled) StepSilent(maxSteps int) (Action, error) {
	code, regs, pc := c.code, c.regs, c.pc
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			c.pc = pc
			return Action{}, errSilentBudget
		}
		if uint(pc) >= uint(len(code)) {
			c.pc = pc
			return Action{Kind: OpHalted}, nil
		}
		in := &code[pc]
		switch in.op {
		case opLoad:
			c.pc = pc
			return Action{Kind: OpRead, Loc: in.arg}, nil
		case opStore:
			c.pc = pc
			return Action{Kind: OpWrite, Loc: in.arg, Val: regs[in.a.slot] + in.a.imm}, nil
		case opMov:
			regs[in.dst] = regs[in.a.slot] + in.a.imm
			pc++
		case opAdd:
			regs[in.dst] = regs[in.a.slot] + in.a.imm + regs[in.b.slot] + in.b.imm
			pc++
		case opMul:
			regs[in.dst] = (regs[in.a.slot] + in.a.imm) * (regs[in.b.slot] + in.b.imm)
			pc++
		case opCmpEq:
			if regs[in.a.slot]+in.a.imm == regs[in.b.slot]+in.b.imm {
				regs[in.dst] = 1
			} else {
				regs[in.dst] = 0
			}
			pc++
		case opJmp:
			pc = int(in.arg)
		case opJmpNZ:
			if regs[in.dst] != 0 {
				pc = int(in.arg)
			} else {
				pc++
			}
		case opJmpZ:
			if regs[in.dst] == 0 {
				pc = int(in.arg)
			} else {
				pc++
			}
		default: // opNop
			pc++
		}
	}
}

// ApplyRead completes the pending load with the value supplied by
// memory.
func (c *Compiled) ApplyRead(v Val) {
	c.regs[c.code[c.pc].dst] = v
	c.pc++
}

// ApplyWrite completes the pending store.
func (c *Compiled) ApplyWrite() { c.pc++ }
