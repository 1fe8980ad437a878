//go:build !purego

#include "textflag.h"

// TWIDDLE loads the twiddles at m as wr = [re, re] and wi = [im, im] per
// complex128 and XORs mask into wi: the conjugate when mask holds -0.
#define TWIDDLE(m, mask, wr, wi) \
	VMOVDDUP  m, wr; \
	VPERMILPD $15, m, wi; \
	VXORPD    mask, wi, wi

// CMUL sets p = x*w for every complex128 of x, with w split by TWIDDLE.
// p = x*wr = [xr*wr, xi*wr] and s = [xi, xr]*wi = [xi*wi, xr*wi], so
// VADDSUBPD gives [xr*wr - xi*wi, xi*wr + xr*wi]: the four products of
// Go's complex128 multiply, with the imaginary sum's addends swapped.
#define CMUL(x, wr, wi, s, p) \
	VPERMILPD $5, x, s; \
	VMULPD    wr, x, p; \
	VMULPD    wi, s, s; \
	VADDSUBPD s, p, p

// GROUP runs the four butterflies of the group at data R13 and twiddles
// R14, with R9 = h*16 and R10 = 3*h*16 bytes, as fusedPass does for k>0:
// (k, k+h) and (k+2h, k+3h) with tw[k], then (k, k+2h) with tw[h+k] and
// (k+h, k+3h) with tw[2h+k]. With Y registers it runs groups k and k+1.
#define GROUP(mask, wr, wi, a, b, x0, x1, x2, x3, s, t) \
	TWIDDLE((R14), mask, wr, wi); \
	VMOVUPD (R13), a; \
	VMOVUPD (R13)(R9*1), b; \
	CMUL(b, wr, wi, s, t); \
	VADDPD  t, a, x0; \
	VSUBPD  t, a, x1; \
	VMOVUPD (R13)(R9*2), a; \
	VMOVUPD (R13)(R10*1), b; \
	CMUL(b, wr, wi, s, t); \
	VADDPD  t, a, x2; \
	VSUBPD  t, a, x3; \
	TWIDDLE((R14)(R9*1), mask, wr, wi); \
	CMUL(x2, wr, wi, s, t); \
	VADDPD  t, x0, a; \
	VSUBPD  t, x0, b; \
	VMOVUPD a, (R13); \
	VMOVUPD b, (R13)(R9*2); \
	TWIDDLE((R14)(R9*2), mask, wr, wi); \
	CMUL(x3, wr, wi, s, t); \
	VADDPD  t, x1, a; \
	VSUBPD  t, x1, b; \
	VMOVUPD a, (R13)(R9*1); \
	VMOVUPD b, (R13)(R10*1)

// func fusedPassAVX(data, tw []complex128, h int, sign float64)
//
// fusedPass for h >= 4, a power of two, with len(data) a multiple of 4h
// and len(tw) >= 3h. Per block: the peeled k=0 group in 128-bit VEX,
// the groups k = 1..h-2 in pairs in YMM, and k = h-1 in 128-bit VEX.
// The inverse transform (sign = -1) conjugates each twiddle by flipping
// the sign bit of its imaginary part, the same bits as sign*imag(w).
TEXT ·fusedPassAVX(SB), NOSPLIT, $0-64
	MOVQ data_base+0(FP), R8
	MOVQ data_len+8(FP), CX
	MOVQ tw_base+24(FP), SI
	MOVQ h+48(FP), BX
	MOVQ sign+56(FP), AX
	SHRQ $63, AX
	SHLQ $63, AX
	VMOVQ       AX, X15
	VMOVDDUP    X15, X15
	VINSERTF128 $1, X15, Y15, Y15 // sign bit of sign in every lane
	MOVQ BX, R9
	SHLQ $4, R9                   // h*16: from one element of a group to the next
	LEAQ (R9)(R9*2), R10          // 3h*16
	MOVQ R9, R11
	SHLQ $2, R11                  // 4h*16: one block
	SHLQ $4, CX                   // bytes of data
	SUBQ $2, BX
	SHRQ $1, BX                   // (h-2)/2 pairs of groups per block
	TESTQ CX, CX
	JZ    done

block:
	MOVQ R8, R13
	MOVQ SI, R14
	// k=0: (0, h) and (2h, 3h) with twiddle 1, (0, 2h) with twiddle 1,
	// (h, 3h) with tw[2h].
	VMOVUPD (R13), X2
	VMOVUPD (R13)(R9*1), X3
	VADDPD  X3, X2, X4
	VSUBPD  X3, X2, X5
	VMOVUPD (R13)(R9*2), X2
	VMOVUPD (R13)(R10*1), X3
	VADDPD  X3, X2, X6
	VSUBPD  X3, X2, X7
	TWIDDLE((R14)(R9*2), X15, X0, X1)
	CMUL(X7, X0, X1, X8, X9)
	VADDPD  X6, X4, X2
	VSUBPD  X6, X4, X3
	VMOVUPD X2, (R13)
	VMOVUPD X3, (R13)(R9*2)
	VADDPD  X9, X5, X2
	VSUBPD  X9, X5, X3
	VMOVUPD X2, (R13)(R9*1)
	VMOVUPD X3, (R13)(R10*1)
	ADDQ    $16, R13
	ADDQ    $16, R14
	MOVQ    BX, DX

pair:
	GROUP(Y15, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9)
	ADDQ $32, R13
	ADDQ $32, R14
	DECQ DX
	JNZ  pair

	GROUP(X15, X0, X1, X2, X3, X4, X5, X6, X7, X8, X9)
	ADDQ R11, R8
	SUBQ R11, CX
	JA   block

done:
	VZEROUPPER
	RET
