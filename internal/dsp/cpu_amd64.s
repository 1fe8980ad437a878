//go:build !purego

#include "textflag.h"

// func hasAVX() bool
//
// AVX is usable when CPUID.1:ECX reports both OSXSAVE (bit 27) and AVX
// (bit 28), and XCR0 shows the OS saving XMM (bit 1) and YMM (bit 2)
// state.
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
