package dsp

import (
	"fmt"
	"sync"
)

// RealPlan is the real-input fast path through the FFT. It wraps the
// complex Plan of the same size and runs the same butterflies with the
// same operands and twiddles (each butterfly's arithmetic is fixed; only
// the order of independent butterflies is the kernel's choice), so a
// RealPlan transform is bit-identical to widening the samples to
// complex128 and running Plan.Forward — the property the golden-vector
// modem tests and the chaos replay pin down. The speed comes from what a
// real input makes provably redundant, not from reordering arithmetic:
//
//   - the widen-to-complex copy is fused into the bit-reversal
//     permutation (one pass instead of two, and no allocation);
//   - the first two butterfly stages, whose operands all carry exactly
//     zero imaginary parts, run in real arithmetic (the elided operations
//     are IEEE no-ops: x±0 and x·0 terms);
//   - all buffers are caller-provided, so steady-state transforms
//     allocate nothing.
//
// A packed n/2-point complex algorithm was considered and rejected: it
// halves the flop count but changes the summation order, which is only
// approximately equal to the reference transform. Bit-exactness is the
// contract here; see DESIGN.md §10.
//
// A RealPlan is safe for concurrent use after creation.
type RealPlan struct {
	p *Plan
}

// NewRealPlan creates a real-input FFT plan for transforms of length n.
// n must be a power of two and at least 2: odd lengths (including 1) and
// non-powers of two are rejected.
func NewRealPlan(n int) (*RealPlan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: real FFT size %d is not a power of two >= 2", n)
	}
	p, err := planFor(n)
	if err != nil {
		return nil, err
	}
	return &RealPlan{p: p}, nil
}

// Size reports the transform length the plan was created for.
func (rp *RealPlan) Size() int { return rp.p.n }

// Forward computes the DFT of the real signal src into dst. dst must have
// the plan's length; the result is the full spectrum, Hermitian by
// construction (dst[n-k] = conj(dst[k])), so dst[:n/2+1] carries all of
// the information. The output is bit-identical to widening src and
// running Plan.Forward.
func (rp *RealPlan) Forward(dst []complex128, src []float64) error {
	p := rp.p
	n := p.n
	if len(dst) != n || len(src) != n {
		return fmt.Errorf("dsp: real plan size %d does not match dst %d / src %d", n, len(dst), len(src))
	}
	rp.realStages(dst, src)
	// From stage size=8 on the intermediates are genuinely complex; run
	// the shared butterfly kernel, same butterflies as the complex plan.
	p.butterfliesFrom(dst, 8, false)
	return nil
}

// realStages widens src into dst in bit-reversed order and runs the
// butterfly stages of sizes 2 and 4, whose operands are all real.
func (rp *RealPlan) realStages(dst []complex128, src []float64) {
	p := rp.p
	n := p.n
	// Widen and bit-reverse in one pass.
	for i, j := range p.rev {
		dst[i] = complex(src[j], 0)
	}
	// Stage size=2: all operands are real and the twiddle is 1, so the
	// butterflies are plain real add/subtract pairs.
	for s := 0; s+1 < n; s += 2 {
		ar, br := real(dst[s]), real(dst[s+1])
		dst[s] = complex(ar+br, 0)
		dst[s+1] = complex(ar-br, 0)
	}
	// Stage size=4: operands are still real. The k=0 butterfly is again a
	// real add/subtract; the k=1 butterfly multiplies a real value by the
	// quarter-turn twiddle, which is just two real multiplies.
	if n >= 4 {
		w := p.twiddles[n/4]
		wr, wi := real(w), imag(w)
		for s := 0; s+3 < n; s += 4 {
			a0, b0 := real(dst[s]), real(dst[s+2])
			a1, b1 := real(dst[s+1]), real(dst[s+3])
			dst[s] = complex(a0+b0, 0)
			dst[s+2] = complex(a0-b0, 0)
			re, im := b1*wr, b1*wi
			dst[s+1] = complex(a1+re, im)
			dst[s+3] = complex(a1-re, -im)
		}
	}
}

// Inverse computes the real part of the inverse DFT of src into dst,
// including the 1/n normalization, using scratch for the complex
// intermediate. dst and scratch must have the plan's length; scratch may
// be the same slice as src (src is then overwritten). The normalization
// is fused into the take-real pass, performing the same multiplication
// the complex Inverse would, so the output matches real(Plan.Inverse)
// bit for bit.
//
// src need not be Hermitian: like the OFDM modulator, callers may hand a
// one-sided spectrum and keep only the real projection.
func (rp *RealPlan) Inverse(dst []float64, src, scratch []complex128) error {
	p := rp.p
	n := p.n
	if len(dst) != n {
		return fmt.Errorf("dsp: real plan size %d does not match dst %d", n, len(dst))
	}
	if err := p.check(scratch, src); err != nil {
		return err
	}
	p.permute(scratch, src)
	p.butterfliesFrom(scratch, 2, true)
	invN := 1 / float64(n)
	for i, v := range scratch {
		dst[i] = real(v) * invN
	}
	return nil
}

// _realPlanCache maps FFT size -> *RealPlan, mirroring _planCache.
var _realPlanCache sync.Map

// RealPlanFor returns the shared cached real-input plan for transforms of
// length n. Safe for concurrent use.
func RealPlanFor(n int) (*RealPlan, error) {
	if rp, ok := _realPlanCache.Load(n); ok {
		return rp.(*RealPlan), nil
	}
	rp, err := NewRealPlan(n)
	if err != nil {
		return nil, err
	}
	actual, _ := _realPlanCache.LoadOrStore(n, rp)
	return actual.(*RealPlan), nil
}

// RealForward transforms the real signal src into the caller-provided dst
// using the cached plan for len(src). See RealPlan.Forward.
func RealForward(dst []complex128, src []float64) error {
	rp, err := RealPlanFor(len(src))
	if err != nil {
		return err
	}
	return rp.Forward(dst, src)
}

// RealInverse computes the real part of the inverse DFT of src into dst
// using the cached plan and a pooled scratch buffer. See RealPlan.Inverse.
func RealInverse(dst []float64, src []complex128) error {
	rp, err := RealPlanFor(len(src))
	if err != nil {
		return err
	}
	scratch := GetComplex(len(src))
	defer PutComplex(scratch)
	return rp.Inverse(dst, src, scratch)
}
