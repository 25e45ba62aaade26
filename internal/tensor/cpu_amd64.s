#include "textflag.h"

// func cpuFeatures() (f16c, avx2fma bool)
//
// One read of CPUID and XCR0. Both kernels need AVX and the OS saving
// the YMM registers (CPUID.1:ECX OSXSAVE and AVX, then XGETBV's XMM and
// YMM bits); f16c adds CPUID.1:ECX F16C, avx2fma adds CPUID.1:ECX FMA
// and CPUID.(7,0):EBX AVX2.
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB  $0, f16c+0(FP)
	MOVB  $0, avx2fma+1(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	MOVL  AX, SI              // highest standard leaf
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, DI
	ANDL  $0x18000000, CX     // OSXSAVE (27), AVX (28)
	CMPL  CX, $0x18000000
	JNE   done
	XORL  CX, CX
	XGETBV                    // XCR0: the OS saves XMM (1) and YMM (2) state
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   done
	BTL   $29, DI             // F16C
	SETCS f16c+0(FP)
	BTL   $12, DI             // FMA
	JCC   done
	CMPL  SI, $7
	JLT   done
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $5, BX              // AVX2
	SETCS avx2fma+1(FP)

done:
	RET
