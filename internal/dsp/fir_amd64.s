//go:build !purego

#include "textflag.h"

// func firInterior8(out, x, taps []float64)
//
// For every whole block of eight outputs in out, with nt = len(taps):
//
//	out[i] = sum over j ascending of taps[j]*x[i+nt-1-j]
//
// Each output owns one lane of one of four XMM accumulators, which start
// at +0, so every lane performs the scalar sequence sum += tap*x exactly.
// Requires len(x) >= len(out)&^7 + nt - 1. With no taps it writes
// nothing.
TEXT ·firInterior8(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ taps_base+48(FP), DX
	MOVQ taps_len+56(FP), BX
	SHRQ $3, CX
	JZ   done
	TESTQ BX, BX
	JZ   done
	LEAQ -8(SI)(BX*8), SI // &x[nt-1]: tap 0 of output 0

block:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  SI, R8  // x for the current tap, lane 0
	MOVQ  DX, R9  // current tap
	MOVQ  BX, R10 // taps left

tap:
	MOVSD    (R9), X4
	UNPCKLPD X4, X4
	MOVUPD   0(R8), X5
	MOVUPD   16(R8), X6
	MOVUPD   32(R8), X7
	MOVUPD   48(R8), X8
	MULPD    X4, X5
	MULPD    X4, X6
	MULPD    X4, X7
	MULPD    X4, X8
	ADDPD    X5, X0
	ADDPD    X6, X1
	ADDPD    X7, X2
	ADDPD    X8, X3
	ADDQ     $8, R9
	SUBQ     $8, R8
	DECQ     R10
	JNZ      tap

	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, SI
	DECQ   CX
	JNZ    block

done:
	RET

// func firInterior16AVX(out, x, taps []float64)
//
// firInterior8 for every whole block of sixteen outputs: four YMM
// accumulators, one output per 64-bit lane, each started at +0. Per tap,
// j ascending, VBROADCASTSD spreads the tap over a register and every
// lane performs sum += tap*x with the same IEEE multiply and add as the
// scalar loop. Requires AVX and len(x) >= len(out)&^15 + nt - 1.
TEXT ·firInterior16AVX(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ taps_base+48(FP), DX
	MOVQ taps_len+56(FP), BX
	SHRQ $4, CX
	JZ   done
	TESTQ BX, BX
	JZ   done
	LEAQ -8(SI)(BX*8), SI // &x[nt-1]: tap 0 of output 0

block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R8  // x for the current tap, lane 0
	MOVQ   DX, R9  // current tap
	MOVQ   BX, R10 // taps left

tap:
	VBROADCASTSD (R9), Y4
	VMULPD       0(R8), Y4, Y5
	VMULPD       32(R8), Y4, Y6
	VMULPD       64(R8), Y4, Y7
	VMULPD       96(R8), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, R9
	SUBQ         $8, R8
	DECQ         R10
	JNZ          tap

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	DECQ    CX
	JNZ     block

done:
	VZEROUPPER
	RET
