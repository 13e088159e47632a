package riscv

import (
	"math"
	"testing"
)

// Spec-mandated edge semantics of the M extension and the W-suffix ops.

func TestDivisionByZeroSemantics(t *testing.T) {
	e := run(t, `
		li   t0, 42
		li   t1, 0
		div  a0, t0, t1   # quotient of /0 is -1 (all ones)
		divu a1, t0, t1   # unsigned: 2^64-1
		rem  a2, t0, t1   # remainder of /0 is the dividend
		remu a3, t0, t1
		ecall
	`)
	if int64(e.X[10]) != -1 {
		t.Errorf("div/0 = %d, want -1", int64(e.X[10]))
	}
	if e.X[11] != ^uint64(0) {
		t.Errorf("divu/0 = %#x", e.X[11])
	}
	if e.X[12] != 42 || e.X[13] != 42 {
		t.Errorf("rem/0 = %d, remu/0 = %d; want 42, 42", e.X[12], e.X[13])
	}
}

func TestSignedDivisionOverflow(t *testing.T) {
	// MinInt64 / -1 overflows: quotient = MinInt64, remainder = 0.
	e := mustEmu(t, `
		li  t1, -1
		div a0, t0, t1
		rem a1, t0, t1
		ecall
	`, 1<<12)
	minInt64 := int64(math.MinInt64)
	e.X[5] = uint64(minInt64) // t0 seeded by host
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if int64(e.X[10]) != math.MinInt64 {
		t.Errorf("overflow quotient = %d", int64(e.X[10]))
	}
	if e.X[11] != 0 {
		t.Errorf("overflow remainder = %d", e.X[11])
	}
}

func TestMulh(t *testing.T) {
	e := mustEmu(t, `
		mulh  a0, t0, t1
		mulhu a1, t0, t1
		ecall
	`, 1<<12)
	e.X[5] = ^uint64(2) // t0 = -3 as two's complement
	e.X[6] = 5          // t1
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	// -3 * 5 = -15: signed high word is -1; unsigned high word of
	// (2^64-3)*5 = 5*2^64 - 15 → high = 4.
	if int64(e.X[10]) != -1 {
		t.Errorf("mulh = %d, want -1", int64(e.X[10]))
	}
	if e.X[11] != 4 {
		t.Errorf("mulhu = %d, want 4", e.X[11])
	}
}

func TestWSuffixWrapAndSignExtend(t *testing.T) {
	e := run(t, `
		li    t0, 0x7fffffff
		addiw a0, t0, 1       # wraps to -2^31, sign-extended
		li    t1, 1
		addw  a1, t0, t1
		subw  a2, t0, t0      # 0
		li    t2, 0x10000
		mulw  a3, t2, t2      # 2^32 wraps to 0
		ecall
	`)
	if int64(e.X[10]) != math.MinInt32 {
		t.Errorf("addiw wrap = %d, want %d", int64(e.X[10]), math.MinInt32)
	}
	if int64(e.X[11]) != math.MinInt32 {
		t.Errorf("addw wrap = %d", int64(e.X[11]))
	}
	if e.X[12] != 0 || e.X[13] != 0 {
		t.Errorf("subw/mulw = %d/%d, want 0/0", e.X[12], e.X[13])
	}
}

func TestShiftSemantics(t *testing.T) {
	e := run(t, `
		li   t0, -16
		srai a0, t0, 2     # arithmetic: -4
		srli a1, t0, 60    # logical: high bits come in as 0
		li   t1, 3
		sll  a2, t1, t1    # 24
		sra  a3, t0, t1    # -2
		ecall
	`)
	if int64(e.X[10]) != -4 {
		t.Errorf("srai = %d", int64(e.X[10]))
	}
	if e.X[11] != 15 {
		t.Errorf("srli = %d, want 15", e.X[11])
	}
	if e.X[12] != 24 {
		t.Errorf("sll = %d", e.X[12])
	}
	if int64(e.X[13]) != -2 {
		t.Errorf("sra = %d", int64(e.X[13]))
	}
}

func TestX0IsHardwiredZero(t *testing.T) {
	e := run(t, `
		li   t0, 7
		addi x0, t0, 5    # write to x0 is discarded
		add  a0, x0, x0
		ecall
	`)
	if e.X[0] != 0 || e.X[10] != 0 {
		t.Errorf("x0 = %d, a0 = %d", e.X[0], e.X[10])
	}
}

func TestFloatMinMaxSignInjection(t *testing.T) {
	e := mustEmu(t, `
		fmin.d  fa0, fs0, fs1
		fmax.d  fa1, fs0, fs1
		fsgnj.d fa2, fs0, fs1   # magnitude of fs0, sign of fs1
		fmv.d   fa3, fs0        # pseudo: fsgnj.d fa3, fs0, fs0
		ecall
	`, 1<<12)
	e.F[8] = 2.5   // fs0
	e.F[9] = -7.25 // fs1
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.F[10] != -7.25 || e.F[11] != 2.5 {
		t.Errorf("fmin/fmax = %v/%v", e.F[10], e.F[11])
	}
	if e.F[12] != -2.5 {
		t.Errorf("fsgnj.d = %v, want -2.5", e.F[12])
	}
	if e.F[13] != 2.5 {
		t.Errorf("fmv.d = %v", e.F[13])
	}
}

func TestVector32BitLanes(t *testing.T) {
	// e32: 4 lanes at VLEN=128; float32 arithmetic end to end.
	e := mustEmu(t, `
		li      t0, 4
		vsetvli t1, t0, e32, m1
		vle32.v v1, (a0)
		vfadd.vv v2, v1, v1   # doubles each lane
		vse32.v v2, (a1)
		ecall
	`, 1<<12)
	in := []float32{1.5, -2.25, 3.0, 0.5}
	base := e.MemBase
	for i, v := range in {
		bits := math.Float32bits(v)
		e.Mem[i*4] = byte(bits)
		e.Mem[i*4+1] = byte(bits >> 8)
		e.Mem[i*4+2] = byte(bits >> 16)
		e.Mem[i*4+3] = byte(bits >> 24)
	}
	e.X[10] = base
	e.X[11] = base + 64
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	for i, v := range in {
		off := 64 + i*4
		bits := uint32(e.Mem[off]) | uint32(e.Mem[off+1])<<8 | uint32(e.Mem[off+2])<<16 | uint32(e.Mem[off+3])<<24
		if got := math.Float32frombits(bits); got != 2*v {
			t.Errorf("lane %d = %v, want %v", i, got, 2*v)
		}
	}
	if e.X[6] != 4 {
		t.Errorf("vsetvli e32 VL = %d, want 4", e.X[6])
	}
}

func TestSltVariants(t *testing.T) {
	e := run(t, `
		li    t0, -5
		li    t1, 3
		slt   a0, t0, t1    # signed: 1
		sltu  a1, t0, t1    # unsigned: -5 is huge → 0
		slti  a2, t1, 10    # 1
		sltiu a3, t1, 2     # 0
		ecall
	`)
	want := []uint64{1, 0, 1, 0}
	for i, w := range want {
		if e.X[10+i] != w {
			t.Errorf("x%d = %d, want %d", 10+i, e.X[10+i], w)
		}
	}
}

func TestFcvtRoundTrip(t *testing.T) {
	e := run(t, `
		li       t0, -12345
		fcvt.d.l fa0, t0
		fcvt.l.d a0, fa0
		ecall
	`)
	if int64(e.X[10]) != -12345 {
		t.Errorf("fcvt round trip = %d", int64(e.X[10]))
	}
	if e.F[10] != -12345.0 {
		t.Errorf("fcvt.d.l = %v", e.F[10])
	}
}

// TestFusedMultiplyAddRoundsOnce pins the ISA's fused semantics: fmadd.d,
// vfmacc.vv and vfmacc.vf round a*b + c once. (1+2⁻³⁰)(1−2⁻³⁰) is 1−2⁻⁶⁰
// exactly, which alone rounds to 1, so the product minus 1 is −2⁻⁶⁰ with
// one rounding and 0 with two.
func TestFusedMultiplyAddRoundsOnce(t *testing.T) {
	e := mustEmu(t, `
		fmadd.d   fa2, fa0, fa1, fa3
		li        t0, 1
		vsetvli   t1, t0, e64, m1
		vle64.v   v1, (a0)
		vle64.v   v2, (a1)
		vle64.v   v3, (a2)
		vfmacc.vv v3, v1, v2
		vse64.v   v3, (a2)
		vle64.v   v4, (a3)
		vfmacc.vf v4, fa0, v2
		vse64.v   v4, (a3)
		ecall
	`, 1<<12)
	a, b := 1+math.Ldexp(1, -30), 1-math.Ldexp(1, -30)
	base := e.MemBase
	if err := e.WriteF64(base, []float64{a, b, -1, -1}); err != nil {
		t.Fatal(err)
	}
	e.X[10], e.X[11], e.X[12], e.X[13] = base, base+8, base+16, base+24
	e.F[10], e.F[11], e.F[13] = a, b, -1
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	lanes, err := e.ReadF64(base+16, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := -math.Ldexp(1, -60)
	for _, c := range []struct {
		op  string
		got float64
	}{{"fmadd.d", e.F[12]}, {"vfmacc.vv", lanes[0]}, {"vfmacc.vf", lanes[1]}} {
		if c.got != want {
			t.Errorf("%s: (1+2⁻³⁰)(1−2⁻³⁰) − 1 = %g, want %g (one rounding)", c.op, c.got, want)
		}
	}
}
