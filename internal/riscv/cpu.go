// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//
//simlint:deterministic
package riscv

import (
	"encoding/binary"
	"fmt"
	"math"

	"riscvmem/internal/sim"
)

// Emulator executes an assembled Program against a simulated machine's
// memory-hierarchy timing model: every load and store is charged through a
// sim.Core, so the emulated kernel experiences the device's caches, TLBs,
// prefetchers and DRAM channels exactly like the Go kernels do.
type Emulator struct {
	Prog *Program

	X [32]uint64
	F [32]float64
	V [32][]byte // VLEN/8 bytes per register

	PC       uint64
	VL       int // elements, set by vsetvli
	SEW      int // element bits (32 or 64)
	VLenBits int

	Mem      []byte
	MemBase  uint64
	Executed uint64
	Halted   bool

	m *sim.Machine
}

// NewEmulator builds an emulator for prog with memBytes of flat data memory
// allocated in the simulated machine's address space. VLEN defaults to the
// C906's 128 bits.
func NewEmulator(prog *Program, m *sim.Machine, memBytes int) (*Emulator, error) {
	base, err := m.AllocRaw(int64(memBytes))
	if err != nil {
		return nil, err
	}
	e := &Emulator{
		Prog: prog, PC: prog.Base, VLenBits: 128,
		Mem: make([]byte, memBytes), MemBase: base, m: m,
	}
	for i := range e.V {
		e.V[i] = make([]byte, e.VLenBits/8)
	}
	return e, nil
}

// WriteF64 copies values into emulator memory at the simulated address
// (host-side, untimed — test/benchmark setup).
func (e *Emulator) WriteF64(addr uint64, vals []float64) error {
	off := addr - e.MemBase
	if off+uint64(len(vals))*8 > uint64(len(e.Mem)) {
		return fmt.Errorf("riscv: WriteF64 out of bounds")
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint64(e.Mem[off+uint64(i)*8:], math.Float64bits(v))
	}
	return nil
}

// ReadF64 copies values out of emulator memory (host-side, untimed).
func (e *Emulator) ReadF64(addr uint64, n int) ([]float64, error) {
	off := addr - e.MemBase
	if off+uint64(n)*8 > uint64(len(e.Mem)) {
		return nil, fmt.Errorf("riscv: ReadF64 out of bounds")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(e.Mem[off+uint64(i)*8:]))
	}
	return out, nil
}

func (e *Emulator) load(addr uint64, size int) (uint64, error) {
	off := addr - e.MemBase
	if addr < e.MemBase || off+uint64(size) > uint64(len(e.Mem)) {
		return 0, fmt.Errorf("riscv: load %d bytes at %#x outside data memory", size, addr)
	}
	switch size {
	case 1:
		return uint64(e.Mem[off]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(e.Mem[off:])), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(e.Mem[off:])), nil
	default:
		return binary.LittleEndian.Uint64(e.Mem[off:]), nil
	}
}

func (e *Emulator) store(addr uint64, size int, v uint64) error {
	off := addr - e.MemBase
	if addr < e.MemBase || off+uint64(size) > uint64(len(e.Mem)) {
		return fmt.Errorf("riscv: store %d bytes at %#x outside data memory", size, addr)
	}
	switch size {
	case 1:
		e.Mem[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(e.Mem[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(e.Mem[off:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(e.Mem[off:], v)
	}
	return nil
}

func (e *Emulator) setX(r int, v uint64) {
	if r != 0 {
		e.X[r] = v
	}
}

// vlmax returns VLEN/SEW for the current element width.
func (e *Emulator) vlmax(sewBits int) int { return e.VLenBits / sewBits }

// Run executes until ecall, an error, or maxInstr retired instructions,
// returning the simulated region result.
func (e *Emulator) Run(maxInstr uint64) (sim.Result, error) {
	var execErr error
	res := e.m.RunSeq(func(c *sim.Core) {
		for !e.Halted {
			if e.Executed >= maxInstr {
				execErr = fmt.Errorf("riscv: instruction budget %d exhausted at pc=%#x", maxInstr, e.PC)
				return
			}
			if err := e.step(c); err != nil {
				execErr = err
				return
			}
		}
	})
	return res, execErr
}

// step fetches, decodes, times and executes one instruction.
func (e *Emulator) step(c *sim.Core) error {
	idx := (e.PC - e.Prog.Base) / 4
	if e.PC < e.Prog.Base || idx >= uint64(len(e.Prog.Words)) {
		return fmt.Errorf("riscv: pc %#x outside program", e.PC)
	}
	in, err := Decode(e.Prog.Words[idx])
	if err != nil {
		return err
	}
	e.Executed++
	next := e.PC + 4
	s := in.Spec

	switch s.Class {
	case ClassALU, ClassBranch, ClassJump, ClassVSet, ClassSystem:
		c.IntOps(1)
	case ClassMul:
		c.Cycles(2)
	case ClassDiv:
		c.Cycles(20)
	case ClassFALU:
		c.Flops(1)
	case ClassFMA:
		c.Flops(2)
	case ClassFDiv:
		c.Cycles(15)
		// loads/stores charge via Touch below; vector ops charge per lane
	}

	x := func(r int) uint64 { return e.X[r] }
	switch s.Name {
	case "lui":
		e.setX(in.Rd, uint64(int64(int32(uint32(in.Imm)<<12))))
	case "auipc":
		e.setX(in.Rd, e.PC+uint64(int64(int32(uint32(in.Imm)<<12))))
	case "jal":
		e.setX(in.Rd, next)
		next = e.PC + uint64(in.Imm)
	case "jalr":
		t := next
		next = (x(in.Rs1) + uint64(in.Imm)) &^ 1
		e.setX(in.Rd, t)
	case "beq", "bne", "blt", "bge", "bltu", "bgeu":
		a, b := x(in.Rs1), x(in.Rs2)
		var taken bool
		switch s.Name {
		case "beq":
			taken = a == b
		case "bne":
			taken = a != b
		case "blt":
			taken = int64(a) < int64(b)
		case "bge":
			taken = int64(a) >= int64(b)
		case "bltu":
			taken = a < b
		case "bgeu":
			taken = a >= b
		}
		if taken {
			next = e.PC + uint64(in.Imm)
		}
	case "lb", "lh", "lw", "ld", "lbu", "lhu", "lwu":
		size := map[string]int{"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "lwu": 4, "ld": 8}[s.Name]
		addr := x(in.Rs1) + uint64(in.Imm)
		c.Touch(addr, size, false)
		v, err := e.load(addr, size)
		if err != nil {
			return err
		}
		switch s.Name {
		case "lb":
			v = uint64(int64(int8(v)))
		case "lh":
			v = uint64(int64(int16(v)))
		case "lw":
			v = uint64(int64(int32(v)))
		}
		e.setX(in.Rd, v)
	case "sb", "sh", "sw", "sd":
		size := map[string]int{"sb": 1, "sh": 2, "sw": 4, "sd": 8}[s.Name]
		addr := x(in.Rs1) + uint64(in.Imm)
		c.Touch(addr, size, true)
		if err := e.store(addr, size, x(in.Rs2)); err != nil {
			return err
		}
	case "addi":
		e.setX(in.Rd, x(in.Rs1)+uint64(in.Imm))
	case "addiw":
		e.setX(in.Rd, uint64(int64(int32(uint32(x(in.Rs1))+uint32(in.Imm)))))
	case "slti":
		e.setX(in.Rd, b2u(int64(x(in.Rs1)) < in.Imm))
	case "sltiu":
		e.setX(in.Rd, b2u(x(in.Rs1) < uint64(in.Imm)))
	case "xori":
		e.setX(in.Rd, x(in.Rs1)^uint64(in.Imm))
	case "ori":
		e.setX(in.Rd, x(in.Rs1)|uint64(in.Imm))
	case "andi":
		e.setX(in.Rd, x(in.Rs1)&uint64(in.Imm))
	case "slli":
		e.setX(in.Rd, x(in.Rs1)<<uint(in.Imm))
	case "srli":
		e.setX(in.Rd, x(in.Rs1)>>uint(in.Imm))
	case "srai":
		e.setX(in.Rd, uint64(int64(x(in.Rs1))>>uint(in.Imm)))
	case "add":
		e.setX(in.Rd, x(in.Rs1)+x(in.Rs2))
	case "sub":
		e.setX(in.Rd, x(in.Rs1)-x(in.Rs2))
	case "addw":
		e.setX(in.Rd, uint64(int64(int32(uint32(x(in.Rs1))+uint32(x(in.Rs2))))))
	case "subw":
		e.setX(in.Rd, uint64(int64(int32(uint32(x(in.Rs1))-uint32(x(in.Rs2))))))
	case "sll":
		e.setX(in.Rd, x(in.Rs1)<<(x(in.Rs2)&63))
	case "srl":
		e.setX(in.Rd, x(in.Rs1)>>(x(in.Rs2)&63))
	case "sra":
		e.setX(in.Rd, uint64(int64(x(in.Rs1))>>(x(in.Rs2)&63)))
	case "slt":
		e.setX(in.Rd, b2u(int64(x(in.Rs1)) < int64(x(in.Rs2))))
	case "sltu":
		e.setX(in.Rd, b2u(x(in.Rs1) < x(in.Rs2)))
	case "xor":
		e.setX(in.Rd, x(in.Rs1)^x(in.Rs2))
	case "or":
		e.setX(in.Rd, x(in.Rs1)|x(in.Rs2))
	case "and":
		e.setX(in.Rd, x(in.Rs1)&x(in.Rs2))
	case "mul":
		e.setX(in.Rd, x(in.Rs1)*x(in.Rs2))
	case "mulw":
		e.setX(in.Rd, uint64(int64(int32(uint32(x(in.Rs1))*uint32(x(in.Rs2))))))
	case "mulh":
		hi, _ := mul128(int64(x(in.Rs1)), int64(x(in.Rs2)))
		e.setX(in.Rd, uint64(hi))
	case "mulhu":
		hi, _ := umul128(x(in.Rs1), x(in.Rs2))
		e.setX(in.Rd, hi)
	case "div":
		e.setX(in.Rd, udiv(int64(x(in.Rs1)), int64(x(in.Rs2)), true))
	case "divu":
		if x(in.Rs2) == 0 {
			e.setX(in.Rd, ^uint64(0))
		} else {
			e.setX(in.Rd, x(in.Rs1)/x(in.Rs2))
		}
	case "rem":
		e.setX(in.Rd, udiv(int64(x(in.Rs1)), int64(x(in.Rs2)), false))
	case "remu":
		if x(in.Rs2) == 0 {
			e.setX(in.Rd, x(in.Rs1))
		} else {
			e.setX(in.Rd, x(in.Rs1)%x(in.Rs2))
		}
	case "flw", "fld":
		size := 4
		if s.Name == "fld" {
			size = 8
		}
		addr := x(in.Rs1) + uint64(in.Imm)
		c.Touch(addr, size, false)
		v, err := e.load(addr, size)
		if err != nil {
			return err
		}
		if size == 4 {
			e.F[in.Rd] = float64(math.Float32frombits(uint32(v)))
		} else {
			e.F[in.Rd] = math.Float64frombits(v)
		}
	case "fsw", "fsd":
		size := 4
		if s.Name == "fsd" {
			size = 8
		}
		addr := x(in.Rs1) + uint64(in.Imm)
		c.Touch(addr, size, true)
		var bits uint64
		if size == 4 {
			bits = uint64(math.Float32bits(float32(e.F[in.Rs2])))
		} else {
			bits = math.Float64bits(e.F[in.Rs2])
		}
		if err := e.store(addr, size, bits); err != nil {
			return err
		}
	case "fadd.d":
		e.F[in.Rd] = e.F[in.Rs1] + e.F[in.Rs2]
	case "fsub.d":
		e.F[in.Rd] = e.F[in.Rs1] - e.F[in.Rs2]
	case "fmul.d":
		e.F[in.Rd] = e.F[in.Rs1] * e.F[in.Rs2]
	case "fdiv.d":
		e.F[in.Rd] = e.F[in.Rs1] / e.F[in.Rs2]
	case "fsgnj.d":
		e.F[in.Rd] = math.Copysign(e.F[in.Rs1], e.F[in.Rs2])
	case "fmin.d":
		e.F[in.Rd] = math.Min(e.F[in.Rs1], e.F[in.Rs2])
	case "fmax.d":
		e.F[in.Rd] = math.Max(e.F[in.Rs1], e.F[in.Rs2])
	case "feq.d":
		e.setX(in.Rd, b2u(e.F[in.Rs1] == e.F[in.Rs2]))
	case "flt.d":
		e.setX(in.Rd, b2u(e.F[in.Rs1] < e.F[in.Rs2]))
	case "fle.d":
		e.setX(in.Rd, b2u(e.F[in.Rs1] <= e.F[in.Rs2]))
	case "fmv.x.d":
		e.setX(in.Rd, math.Float64bits(e.F[in.Rs1]))
	case "fmv.d.x":
		e.F[in.Rd] = math.Float64frombits(x(in.Rs1))
	case "fcvt.d.l":
		e.F[in.Rd] = float64(int64(x(in.Rs1)))
	case "fcvt.l.d":
		e.setX(in.Rd, uint64(int64(e.F[in.Rs1])))
	case "fmadd.d":
		// Fused by the ISA: one rounding, exactly math.FMA on every host.
		e.F[in.Rd] = math.FMA(e.F[in.Rs1], e.F[in.Rs2], e.F[in.Rs3])
	case "ecall":
		e.Halted = true
	case "vsetvli":
		sew := 8 << uint((in.Imm>>3)&7) // e8..e64 in bits
		e.SEW = sew
		avl := int(x(in.Rs1))
		if in.Rs1 == 0 && in.Rd != 0 {
			avl = e.vlmax(sew)
		}
		if max := e.vlmax(sew); avl > max {
			avl = max
		}
		e.VL = avl
		e.setX(in.Rd, uint64(avl))
	case "vle64.v", "vle32.v", "vse64.v", "vse32.v":
		if e.VL == 0 {
			return fmt.Errorf("riscv: vector memory op before vsetvli at pc=%#x", e.PC)
		}
		size := 8
		if s.Name == "vle32.v" || s.Name == "vse32.v" {
			size = 4
		}
		write := s.Name[1] == 's'
		base := x(in.Rs1)
		// Unit-stride vector memory ops charge the whole burst through the
		// bulk range API — one fused lookup per cache line instead of per
		// element, with identical simulated timing and statistics.
		c.TouchRange(base, size, e.VL, write)
		for k := 0; k < e.VL; k++ {
			addr := base + uint64(k*size)
			if write {
				var bits uint64
				if size == 8 {
					bits = binary.LittleEndian.Uint64(e.V[in.Rd][k*8:])
				} else {
					bits = uint64(binary.LittleEndian.Uint32(e.V[in.Rd][k*4:]))
				}
				if err := e.store(addr, size, bits); err != nil {
					return err
				}
			} else {
				v, err := e.load(addr, size)
				if err != nil {
					return err
				}
				if size == 8 {
					binary.LittleEndian.PutUint64(e.V[in.Rd][k*8:], v)
				} else {
					binary.LittleEndian.PutUint32(e.V[in.Rd][k*4:], uint32(v))
				}
			}
		}
	case "vfadd.vv", "vfsub.vv", "vfmul.vv", "vfmacc.vv",
		"vfadd.vf", "vfmul.vf", "vfmacc.vf", "vfmv.v.f":
		if e.VL == 0 {
			return fmt.Errorf("riscv: vector op before vsetvli at pc=%#x", e.PC)
		}
		// One pass of the vector unit per VLEN of work.
		passes := float64(e.VL*e.SEW) / float64(e.VLenBits)
		if passes < 1 {
			passes = 1
		}
		c.Cycles(passes)
		if err := e.vecArith(s.Name, in); err != nil {
			return err
		}
	default:
		return fmt.Errorf("riscv: unimplemented %q at pc=%#x", s.Name, e.PC)
	}
	e.PC = next
	return nil
}

// vecArith applies a floating-point vector operation lane-wise at the
// current SEW.
func (e *Emulator) vecArith(name string, in Instr) error {
	if e.SEW != 64 && e.SEW != 32 {
		return fmt.Errorf("riscv: unsupported SEW %d", e.SEW)
	}
	get := func(r, k int) float64 {
		if e.SEW == 64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(e.V[r][k*8:]))
		}
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(e.V[r][k*4:])))
	}
	put := func(r, k int, v float64) {
		if e.SEW == 64 {
			binary.LittleEndian.PutUint64(e.V[r][k*8:], math.Float64bits(v))
		} else {
			binary.LittleEndian.PutUint32(e.V[r][k*4:], math.Float32bits(float32(v)))
		}
	}
	for k := 0; k < e.VL; k++ {
		switch name {
		case "vfadd.vv":
			put(in.Rd, k, get(in.Rs2, k)+get(in.Rs1, k))
		case "vfsub.vv":
			put(in.Rd, k, get(in.Rs2, k)-get(in.Rs1, k))
		case "vfmul.vv":
			put(in.Rd, k, get(in.Rs2, k)*get(in.Rs1, k))
		case "vfmacc.vv": // fused, as fmadd.d
			put(in.Rd, k, math.FMA(get(in.Rs1, k), get(in.Rs2, k), get(in.Rd, k)))
		case "vfadd.vf":
			put(in.Rd, k, get(in.Rs2, k)+e.F[in.Rs1])
		case "vfmul.vf":
			put(in.Rd, k, get(in.Rs2, k)*e.F[in.Rs1])
		case "vfmacc.vf":
			put(in.Rd, k, math.FMA(e.F[in.Rs1], get(in.Rs2, k), get(in.Rd, k)))
		case "vfmv.v.f":
			put(in.Rd, k, e.F[in.Rs1])
		}
	}
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func udiv(a, b int64, quotient bool) uint64 {
	if b == 0 {
		if quotient {
			return ^uint64(0)
		}
		return uint64(a)
	}
	if a == math.MinInt64 && b == -1 { // overflow per spec
		if quotient {
			return uint64(a)
		}
		return 0
	}
	if quotient {
		return uint64(a / b)
	}
	return uint64(a % b)
}

// umul128 returns the high and low 64 bits of a*b (unsigned).
func umul128(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	al, ah := a&mask, a>>32
	bl, bh := b&mask, b>>32
	t := al * bl
	lo = t & mask
	carry := t >> 32
	t = ah*bl + carry
	w1 := t & mask
	w2 := t >> 32
	t = al*bh + w1
	lo |= (t & mask) << 32
	hi = ah*bh + w2 + t>>32
	return hi, lo
}

// mul128 returns the high and low 64 bits of a*b (signed).
func mul128(a, b int64) (hi int64, lo uint64) {
	uhi, ulo := umul128(uint64(a), uint64(b))
	h := int64(uhi)
	if a < 0 {
		h -= b
	}
	if b < 0 {
		h -= a
	}
	return h, ulo
}
