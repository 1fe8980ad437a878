// Package dsp implements the digital signal processing primitives the
// WearLock acoustic modem is built on: fast Fourier transforms,
// cross-correlation, FIR filtering, windowing, interpolation, and basic
// signal statistics.
//
// Everything here operates on float64 samples or complex128 spectra and is
// written against the standard library only. All transforms are
// deterministic; none of the functions start goroutines or retain references
// to caller-owned slices beyond the duration of the call.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"
)

// Plan caches the bit-reversal permutation and twiddle factors for a fixed
// power-of-two FFT size so that repeated transforms avoid recomputing
// trigonometry. A Plan is safe for concurrent use after creation.
type Plan struct {
	n   int
	rev []int // bit-reversal permutation
	// stages holds the twiddles of every butterfly stage back to back:
	// the stage with half-size h reads stages[h-1 : 2h-1], whose entry k
	// is twiddles[k*n/(2h)] copied bit for bit.
	stages   []complex128
	twiddles []complex128 // e^{-2πik/n} for k in [0, n/2): the last stage's segment
}

// NewPlan creates an FFT plan for transforms of length n. It returns an
// error if n is not a positive power of two.
func NewPlan(n int) (*Plan, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT size %d is not a positive power of two", n)
	}
	p := &Plan{
		n:      n,
		rev:    make([]int, n),
		stages: make([]complex128, n-1),
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	if n == 1 {
		return p, nil
	}
	p.twiddles = p.stages[n/2-1:]
	for k := range p.twiddles {
		angle := -2 * math.Pi * float64(k) / float64(n)
		p.twiddles[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	for h := n / 4; h >= 1; h >>= 1 {
		seg, step := p.stages[h-1:2*h-1], n/(2*h)
		for k := range seg {
			seg[k] = p.twiddles[k*step]
		}
	}
	return p, nil
}

// Size reports the transform length the plan was created for.
func (p *Plan) Size() int { return p.n }

// Forward computes the discrete Fourier transform of src into dst. The two
// slices must both have the plan's length; dst and src may be the same
// slice. The transform is unnormalized: Forward followed by Inverse
// reproduces the input.
func (p *Plan) Forward(dst, src []complex128) error {
	if err := p.check(dst, src); err != nil {
		return err
	}
	p.permute(dst, src)
	p.butterflies(dst, false)
	return nil
}

// Inverse computes the inverse discrete Fourier transform of src into dst,
// including the 1/n normalization.
func (p *Plan) Inverse(dst, src []complex128) error {
	if err := p.check(dst, src); err != nil {
		return err
	}
	p.permute(dst, src)
	p.butterflies(dst, true)
	scale := complex(1/float64(p.n), 0)
	for i := range dst {
		dst[i] *= scale
	}
	return nil
}

func (p *Plan) check(dst, src []complex128) error {
	if len(dst) != p.n || len(src) != p.n {
		return fmt.Errorf("dsp: plan size %d does not match dst %d / src %d", p.n, len(dst), len(src))
	}
	if partialOverlap(dst, src) {
		return fmt.Errorf("dsp: dst and src partially overlap; pass identical or disjoint slices")
	}
	return nil
}

// partialOverlap reports whether two equal-length slices share memory
// without being the same slice. Such inputs would silently corrupt the
// bit-reversal permutation: the in-place swap path applies only to exact
// aliasing, and the copy path reads elements the permutation has already
// overwritten. The uintptr comparisons are momentary (no pointer is kept),
// so the slices cannot move mid-check.
func partialOverlap(dst, src []complex128) bool {
	if len(dst) == 0 || len(src) == 0 || &dst[0] == &src[0] {
		return false
	}
	d0 := uintptr(unsafe.Pointer(&dst[0]))
	s0 := uintptr(unsafe.Pointer(&src[0]))
	const elem = unsafe.Sizeof(complex128(0))
	dEnd := d0 + uintptr(len(dst))*elem
	sEnd := s0 + uintptr(len(src))*elem
	return d0 < sEnd && s0 < dEnd
}

// permute copies src into dst in bit-reversed order. It handles the aliased
// (dst == &src) case by swapping in place; partially overlapping slices are
// rejected by check before this runs.
func (p *Plan) permute(dst, src []complex128) {
	if &dst[0] == &src[0] {
		for i, j := range p.rev {
			if i < j {
				dst[i], dst[j] = dst[j], dst[i]
			}
		}
		return
	}
	for i, j := range p.rev {
		dst[i] = src[j]
	}
}

func (p *Plan) butterflies(data []complex128, inverse bool) {
	p.butterfliesFrom(data, 2, inverse)
}

// butterfliesFrom runs the radix-2 butterfly stages for block sizes
// fromSize..n. RealPlan enters at fromSize=8 after running its specialized
// real-input stages.
//
// Stages are fused in pairs: one pass over memory runs the stages with
// half-sizes h and 2h (block sizes 2h and 4h) on registers, group by
// group of four elements k, k+h, k+2h, k+3h (fusedPass). Each butterfly
// is the same radix-2 operation with the same twiddle as in a
// stage-by-stage loop; only the order of independent butterflies
// differs, so every output bit is unchanged. An odd stage count ends
// with one plain radix-2 pass.
//
// The k=0 butterfly of every block is peeled out of the twiddle loop: its
// twiddle is exactly 1, so the complex multiply reduces to the identity
// (for finite inputs, bit-for-bit up to the sign of exact zeros). The
// inverse transform conjugates each twiddle by multiplying its imaginary
// part by sign = -1, which is exact.
//
// The fused passes with h >= 4 run on fusedPassVec when it is set.
func (p *Plan) butterfliesFrom(data []complex128, fromSize int, inverse bool) {
	p.butterfliesVia(fusedPassVec, data, fromSize, inverse)
}

// fusedPassVec, when set, runs fusedPass for h >= 4 with the same
// butterflies on the same operands, so every output bit is the same.
// fft_amd64.go sets it to the AVX pass when the CPU has AVX; elsewhere
// it stays nil and fusedPass runs every pass.
var fusedPassVec func(data, tw []complex128, h int, sign float64)

// butterfliesVia is butterfliesFrom with the fused passes for h >= 4
// run by vec, or by fusedPass when vec is nil.
func (p *Plan) butterfliesVia(vec func(data, tw []complex128, h int, sign float64), data []complex128, fromSize int, inverse bool) {
	sign := 1.0
	if inverse {
		sign = -1
	}
	h := fromSize >> 1
	for ; 4*h <= p.n; h <<= 2 {
		if h >= 4 && vec != nil {
			vec(data, p.stages[h-1:4*h-1], h, sign)
		} else {
			fusedPass(data, p.stages[h-1:4*h-1], h, sign)
		}
	}
	if 2*h <= p.n {
		radix2Pass(data, p.stages[h-1:2*h-1], h, sign)
	}
}

// fusedPass runs the two butterfly stages with half-sizes h and 2h. tw
// holds both stages' twiddles: tw[:h] for the first, tw[h:] for the
// second.
func fusedPass(data, tw []complex128, h int, sign float64) {
	twA, twB0, twB1 := tw[:h], tw[h:2*h], tw[2*h:3*h]
	wq := twB1[0]
	wq = complex(real(wq), sign*imag(wq))
	if h == 1 {
		// Stages 2 and 4: every group is a whole block and only its k=0
		// butterflies exist, so skip the per-block slicing.
		for s := 0; s+4 <= len(data); s += 4 {
			d := data[s : s+4 : s+4]
			x0, x1 := d[0]+d[1], d[0]-d[1]
			x2, x3 := d[2]+d[3], d[2]-d[3]
			t := x3 * wq
			d[0], d[2] = x0+x2, x0-x2
			d[1], d[3] = x1+t, x1-t
		}
		return
	}
	for start := 0; start < len(data); start += 4 * h {
		d0 := data[start : start+h]
		d1 := data[start+h : start+2*h][:len(d0)]
		d2 := data[start+2*h : start+3*h][:len(d0)]
		d3 := data[start+3*h : start+4*h][:len(d0)]
		// k=0: both first-stage butterflies and the second stage's
		// (0, 2h) butterfly are peeled; (h, 3h) uses twiddle twB1[0].
		x0, x1, x2, x3 := d0[0], d1[0], d2[0], d3[0]
		x0, x1 = x0+x1, x0-x1
		x2, x3 = x2+x3, x2-x3
		t := x3 * wq
		d0[0], d2[0] = x0+x2, x0-x2
		d1[0], d3[0] = x1+t, x1-t
		a, b0, b1 := twA[:len(d0)], twB0[:len(d0)], twB1[:len(d0)]
		for k := 1; k < len(d0); k++ {
			w := a[k]
			w = complex(real(w), sign*imag(w))
			x0, t = d0[k], d1[k]*w
			x0, x1 = x0+t, x0-t
			x2, t = d2[k], d3[k]*w
			x2, x3 = x2+t, x2-t
			w = b0[k]
			t = x2 * complex(real(w), sign*imag(w))
			d0[k], d2[k] = x0+t, x0-t
			w = b1[k]
			t = x3 * complex(real(w), sign*imag(w))
			d1[k], d3[k] = x1+t, x1-t
		}
	}
}

// radix2Pass runs the one butterfly stage with half-size h, whose
// twiddles are tw.
func radix2Pass(data, tw []complex128, h int, sign float64) {
	for start := 0; start < len(data); start += 2 * h {
		d0 := data[start : start+h]
		d1 := data[start+h : start+2*h][:len(d0)]
		a, b := d0[0], d1[0]
		d0[0], d1[0] = a+b, a-b
		tw := tw[:len(d0)]
		for k := 1; k < len(d0); k++ {
			w := tw[k]
			w = complex(real(w), sign*imag(w))
			t := d1[k] * w
			a := d0[k]
			d0[k], d1[k] = a+t, a-t
		}
	}
}

// _planCache maps FFT size -> *Plan. The working set is a handful of
// sizes hit millions of times from every worker goroutine of a batch
// sweep, so the cache is a sync.Map: loads after the first miss are
// lock-free, and a racing double-create is harmless (one plan wins, the
// loser is garbage-collected).
var _planCache sync.Map

// planFor returns a cached plan for size n, creating one on first use.
// Safe for concurrent use.
func planFor(n int) (*Plan, error) {
	if p, ok := _planCache.Load(n); ok {
		return p.(*Plan), nil
	}
	p, err := NewPlan(n)
	if err != nil {
		return nil, err
	}
	actual, _ := _planCache.LoadOrStore(n, p)
	return actual.(*Plan), nil
}

// PlanFor returns the shared cached plan for transforms of length n (a
// positive power of two). Callers must treat the plan as read-only; it is
// safe for concurrent use.
func PlanFor(n int) (*Plan, error) { return planFor(n) }

// FFT returns the discrete Fourier transform of x. The length of x must be
// a positive power of two.
func FFT(x []complex128) ([]complex128, error) {
	p, err := planFor(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	if err := p.Forward(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// IFFT returns the inverse discrete Fourier transform of x, normalized by
// 1/len(x). The length of x must be a positive power of two.
func IFFT(x []complex128) ([]complex128, error) {
	p, err := planFor(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	if err := p.Inverse(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// FFTReal transforms a real-valued signal. The result has the same length
// as the input and exhibits Hermitian symmetry: X[n-k] = conj(X[k]). It is
// a thin allocating shim over RealPlan; hot paths should hold a RealPlan
// (or call RealForward) with a reused destination buffer instead.
func FFTReal(x []float64) ([]complex128, error) {
	if len(x) == 1 {
		// Length-1 transform is the identity; RealPlan starts at 2.
		return []complex128{complex(x[0], 0)}, nil
	}
	rp, err := RealPlanFor(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	if err := rp.Forward(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// NextPow2 returns the smallest power of two that is >= n, with a minimum
// of 1.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
