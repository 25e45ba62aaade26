#include "textflag.h"

// SSE2 only: MOVUPS/MULPS/ADDPS and their scalar forms, no alignment
// assumed, no FMA. See the kernel contract in kernels.go.

// func axpyKernel(a float32, src, dst *float32, n int)
TEXT ·axpyKernel(SB), NOSPLIT, $0-32
	MOVSS  a+0(FP), X0
	SHUFPS $0, X0, X0
	MOVQ   src+8(FP), SI
	MOVQ   dst+16(FP), DI
	MOVQ   n+24(FP), CX
	CMPQ   CX, $16
	JLT    axpy4

axpy16:
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MOVUPS 32(SI), X3
	MOVUPS 48(SI), X4
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	MOVUPS (DI), X5
	MOVUPS 16(DI), X6
	MOVUPS 32(DI), X7
	MOVUPS 48(DI), X8
	ADDPS  X1, X5
	ADDPS  X2, X6
	ADDPS  X3, X7
	ADDPS  X4, X8
	MOVUPS X5, (DI)
	MOVUPS X6, 16(DI)
	MOVUPS X7, 32(DI)
	MOVUPS X8, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $16, CX
	CMPQ   CX, $16
	JGE    axpy16

axpy4:
	CMPQ CX, $4
	JLT  axpy1

axpy4loop:
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X5
	ADDPS  X1, X5
	MOVUPS X5, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX
	CMPQ   CX, $4
	JGE    axpy4loop

axpy1:
	TESTQ CX, CX
	JZ    axpydone

axpy1loop:
	MOVSS (SI), X1
	MULSS X0, X1
	MOVSS (DI), X5
	ADDSS X1, X5
	MOVSS X5, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   axpy1loop

axpydone:
	RET

// func addToKernel(src, dst *float32, n int)
TEXT ·addToKernel(SB), NOSPLIT, $0-24
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX
	CMPQ CX, $16
	JLT  addto4

addto16:
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MOVUPS 32(SI), X3
	MOVUPS 48(SI), X4
	MOVUPS (DI), X5
	MOVUPS 16(DI), X6
	MOVUPS 32(DI), X7
	MOVUPS 48(DI), X8
	ADDPS  X1, X5
	ADDPS  X2, X6
	ADDPS  X3, X7
	ADDPS  X4, X8
	MOVUPS X5, (DI)
	MOVUPS X6, 16(DI)
	MOVUPS X7, 32(DI)
	MOVUPS X8, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $16, CX
	CMPQ   CX, $16
	JGE    addto16

addto4:
	CMPQ CX, $4
	JLT  addto1

addto4loop:
	MOVUPS (SI), X1
	MOVUPS (DI), X5
	ADDPS  X1, X5
	MOVUPS X5, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX
	CMPQ   CX, $4
	JGE    addto4loop

addto1:
	TESTQ CX, CX
	JZ    addtodone

addto1loop:
	MOVSS (SI), X1
	MOVSS (DI), X5
	ADDSS X1, X5
	MOVSS X5, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   addto1loop

addtodone:
	RET

// func stripKernel(a *float32, astride int, b *float32, ldb, k int, out *float32, skipZero bool)
//
// X0..X7 hold the 32-column strip; X8 is the broadcast a factor.
TEXT ·stripKernel(SB), NOSPLIT, $0-49
	MOVQ    a+0(FP), SI
	MOVQ    astride+8(FP), DX
	SHLQ    $2, DX
	MOVQ    b+16(FP), R8
	MOVQ    ldb+24(FP), R9
	SHLQ    $2, R9
	MOVQ    k+32(FP), CX
	MOVQ    out+40(FP), DI
	MOVBLZX skipZero+48(FP), R10
	XORPS   X0, X0
	XORPS   X1, X1
	XORPS   X2, X2
	XORPS   X3, X3
	XORPS   X4, X4
	XORPS   X5, X5
	XORPS   X6, X6
	XORPS   X7, X7
	TESTQ   CX, CX
	JZ      stripstore

striploop:
	MOVL  (SI), AX
	SHLL  $1, AX         // drops the sign: zero iff the factor is ±0
	JNZ   stripmul
	TESTL R10, R10
	JNZ   stripnext

stripmul:
	MOVSS  (SI), X8
	SHUFPS $0, X8, X8
	MOVUPS (R8), X9
	MOVUPS 16(R8), X10
	MOVUPS 32(R8), X11
	MOVUPS 48(R8), X12
	MULPS  X8, X9
	MULPS  X8, X10
	MULPS  X8, X11
	MULPS  X8, X12
	ADDPS  X9, X0
	ADDPS  X10, X1
	ADDPS  X11, X2
	ADDPS  X12, X3
	MOVUPS 64(R8), X9
	MOVUPS 80(R8), X10
	MOVUPS 96(R8), X11
	MOVUPS 112(R8), X12
	MULPS  X8, X9
	MULPS  X8, X10
	MULPS  X8, X11
	MULPS  X8, X12
	ADDPS  X9, X4
	ADDPS  X10, X5
	ADDPS  X11, X6
	ADDPS  X12, X7

stripnext:
	ADDQ DX, SI
	ADDQ R9, R8
	DECQ CX
	JNZ  striploop

stripstore:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	RET

// func dot4Kernel(a, b *float32, ldb, n4 int, out *float32)
//
// X0..X3 accumulate rows 0..3 of b against a (lane l is partial sum
// s_l); the epilogue transposes them so one vector add per step of
// (s0+s1)+(s2+s3) finishes all four outputs.
TEXT ·dot4Kernel(SB), NOSPLIT, $0-40
	MOVQ  a+0(FP), SI
	MOVQ  b+8(FP), R8
	MOVQ  ldb+16(FP), DX
	SHLQ  $2, DX
	MOVQ  n4+24(FP), CX
	MOVQ  out+32(FP), DI
	LEAQ  (R8)(DX*1), R9
	LEAQ  (R9)(DX*1), R10
	LEAQ  (R10)(DX*1), R11
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	TESTQ CX, CX
	JZ    dot4reduce

dot4loop:
	MOVUPS (SI), X4
	MOVUPS (R8), X5
	MOVUPS (R9), X6
	MOVUPS (R10), X7
	MOVUPS (R11), X8
	MULPS  X4, X5
	MULPS  X4, X6
	MULPS  X4, X7
	MULPS  X4, X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3
	ADDQ   $16, SI
	ADDQ   $16, R8
	ADDQ   $16, R9
	ADDQ   $16, R10
	ADDQ   $16, R11
	DECQ   CX
	JNZ    dot4loop

dot4reduce:
	MOVAPS   X0, X4
	UNPCKLPS X1, X4     // r0.s0 r1.s0 r0.s1 r1.s1
	UNPCKHPS X1, X0     // r0.s2 r1.s2 r0.s3 r1.s3
	MOVAPS   X2, X5
	UNPCKLPS X3, X5     // r2.s0 r3.s0 r2.s1 r3.s1
	UNPCKHPS X3, X2     // r2.s2 r3.s2 r2.s3 r3.s3
	MOVAPS   X4, X6
	MOVLHPS  X5, X6     // s0 of rows 0..3
	MOVHLPS  X4, X5     // s1 of rows 0..3
	MOVAPS   X0, X7
	MOVLHPS  X2, X7     // s2 of rows 0..3
	MOVHLPS  X0, X2     // s3 of rows 0..3
	ADDPS    X5, X6     // s0+s1
	ADDPS    X2, X7     // s2+s3
	ADDPS    X7, X6     // (s0+s1)+(s2+s3)
	MOVUPS   X6, (DI)
	RET
