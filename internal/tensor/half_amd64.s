#include "textflag.h"

// F16C conversions, eight floats per iteration: VCVTPS2PH with
// immediate 0 (round to nearest even, whatever MXCSR says) and
// VCVTPH2PS, both exact IEEE-754 conversions, so each element gets the
// bits of F32ToF16Bits / F16BitsToF32 (half.go). n is a positive multiple
// of 8. Every kernel ends in VZEROUPPER: the SSE2 kernels
// (kernels_amd64.s) run next on the same goroutine.

// func quantizeF16Kernel(x *float32, n int)
TEXT ·quantizeF16Kernel(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX

quantloop:
	VMOVUPS   (DI), Y0
	VCVTPS2PH $0, Y0, X0
	VCVTPH2PS X0, Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $32, DI
	SUBQ      $8, CX
	JNZ       quantloop
	VZEROUPPER
	RET

// func encodeF16Kernel(dst *byte, src *float32, n int)
TEXT ·encodeF16Kernel(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

encloop:
	VMOVUPS   (SI), Y0
	VCVTPS2PH $0, Y0, (DI)
	ADDQ      $32, SI
	ADDQ      $16, DI
	SUBQ      $8, CX
	JNZ       encloop
	VZEROUPPER
	RET

// func decodeF16Kernel(dst *float32, src *byte, n int) bool
//
// Beside the conversion, X8 collects the lanes holding a signalling NaN:
// exponent all ones, quiet bit clear, payload not zero.
TEXT ·decodeF16Kernel(SB), NOSPLIT, $0-25
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	MOVL    $0x7E007E00, AX
	VMOVD   AX, X4
	VPSHUFD $0, X4, X4        // exponent and quiet bit
	MOVL    $0x7C007C00, AX
	VMOVD   AX, X5
	VPSHUFD $0, X5, X5        // exponent all ones, quiet bit clear
	MOVL    $0x01FF01FF, AX
	VMOVD   AX, X6
	VPSHUFD $0, X6, X6        // payload below the quiet bit
	VPXOR   X7, X7, X7
	VPXOR   X8, X8, X8

decloop:
	VMOVDQU   (SI), X0
	VCVTPH2PS X0, Y1
	VMOVUPS   Y1, (DI)
	VPAND     X4, X0, X2
	VPCMPEQW  X5, X2, X2      // Inf, or NaN without the quiet bit
	VPAND     X6, X0, X3
	VPCMPEQW  X7, X3, X3      // payload zero
	VPANDN    X2, X3, X3      // signalling NaN
	VPOR      X3, X8, X8
	ADDQ      $16, SI
	ADDQ      $32, DI
	SUBQ      $8, CX
	JNZ       decloop
	VPTEST    X8, X8
	SETEQ     ret+24(FP)
	VZEROUPPER
	RET
