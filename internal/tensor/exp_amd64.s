#include "textflag.h"

// exp on four float64 lanes with AVX2 and FMA: exp's main path
// (exp.go), which is math.Exp's FMA branch (exp_amd64.s in the Go
// tree), with each scalar instruction there replaced by its packed form
// in the same order, so every lane gets the port's bits. The
// instructions round to nearest even as the scalar ones do; Go code
// never changes MXCSR.
//
// A group of four is taken only when every lane lies in
// [expLo, expHi] = [-708, 709]: there 2^k is a normal float64, so the
// overflow, denormal, NaN and infinity exits of the scalar code cannot
// fire and the kernel has none of them. At the first group with a lane
// outside (or NaN), the kernel stops and reports how far it got; the Go
// caller runs that group through exp and calls again.

// SPLAT writes v into the four float64 lanes of the 32-byte constant at
// byte offset off.
#define SPLAT(off, v) \
	DATA expconst<>+(off)(SB)/8, v; \
	DATA expconst<>+(off+8)(SB)/8, v; \
	DATA expconst<>+(off+16)(SB)/8, v; \
	DATA expconst<>+(off+24)(SB)/8, v

SPLAT(0, $-708.0)
SPLAT(32, $709.0)
SPLAT(64, $1.4426950408889634073599246810018920)      // log2(e)
SPLAT(96, $0.69314718055966295651160180568695068359375) // upper half of ln2
SPLAT(128, $0.28235290563031577122588448175013436025525412068e-12) // lower half
SPLAT(160, $0.0625)
SPLAT(192, $2.4801587301587301587e-5) // 1/8!
SPLAT(224, $1.9841269841269841270e-4)
SPLAT(256, $1.3888888888888888889e-3)
SPLAT(288, $8.3333333333333333333e-3)
SPLAT(320, $4.1666666666666666667e-2)
SPLAT(352, $1.6666666666666666667e-1)
SPLAT(384, $0.5)
SPLAT(416, $1.0)
SPLAT(448, $2.0)
SPLAT(480, $0x3FF)                    // exponent bias, as an int64
GLOBL expconst<>(SB), RODATA|NOPTR, $512

// func expKernel(dst, src *float64, n int) int
TEXT ·expKernel(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	XORQ    AX, AX
	VMOVUPD expconst<>+0(SB), Y6
	VMOVUPD expconst<>+32(SB), Y7

loop:
	CMPQ     AX, CX
	JGE      done
	VMOVUPD  (SI)(AX*8), Y0
	VCMPPD   $0x1D, Y6, Y0, Y4  // x >= -708, false for NaN
	VCMPPD   $0x12, Y7, Y0, Y5  // x <= 709, false for NaN
	VANDPD   Y5, Y4, Y4
	VMOVMSKPD Y4, BX
	CMPL     BX, $15
	JNE      done

	VMULPD     expconst<>+64(SB), Y0, Y1 // x·log2(e)
	VCVTPD2DQY Y1, X2                    // k, rounded to nearest even
	VCVTDQ2PD  X2, Y3
	VFNMADD231PD expconst<>+96(SB), Y3, Y0  // x -= k·ln2 (upper)
	VFNMADD231PD expconst<>+128(SB), Y3, Y0 // x -= k·ln2 (lower)
	VMULPD     expconst<>+160(SB), Y0, Y0   // x/16

	VMOVUPD     expconst<>+192(SB), Y1 // Taylor series, Horner
	VFMADD213PD expconst<>+224(SB), Y0, Y1
	VFMADD213PD expconst<>+256(SB), Y0, Y1
	VFMADD213PD expconst<>+288(SB), Y0, Y1
	VFMADD213PD expconst<>+320(SB), Y0, Y1
	VFMADD213PD expconst<>+352(SB), Y0, Y1
	VFMADD213PD expconst<>+384(SB), Y0, Y1
	VFMADD213PD expconst<>+416(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0             // u = e^(x/16) - 1

	VADDPD      expconst<>+448(SB), Y0, Y1 // u = u·(u+2), three times
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+448(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+448(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+448(SB), Y0, Y1 // then e^x/2^k = u·(u+2) + 1
	VFMADD213PD expconst<>+416(SB), Y1, Y0

	VPMOVSXDQ X2, Y2                    // 2^k: (k + bias) << 52
	VPADDQ    expconst<>+480(SB), Y2, Y2
	VPSLLQ    $52, Y2, Y2
	VMULPD    Y2, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       loop

done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
