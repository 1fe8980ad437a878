package dsp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sameFloat is the kernels' bit-identity contract: equal bit patterns, or
// NaN on both sides. A NaN's payload depends on which operand of a
// commutative add or multiply the compiler (or the SIMD kernel) puts
// first, so it is not part of the contract; whether an output is NaN is.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func sameComplex(a, b complex128) bool {
	return sameFloat(real(a), real(b)) && sameFloat(imag(a), imag(b))
}

// refForward is Plan.Forward through the frozen stage-by-stage loop.
func refForward(p *Plan, src []complex128) []complex128 {
	dst := make([]complex128, p.n)
	p.permute(dst, src)
	butterfliesRadix2(dst, p.twiddles, 2, false)
	return dst
}

// refInverse is Plan.Inverse through the frozen loop.
func refInverse(p *Plan, src []complex128) []complex128 {
	dst := make([]complex128, p.n)
	p.permute(dst, src)
	butterfliesRadix2(dst, p.twiddles, 2, true)
	scale := complex(1/float64(p.n), 0)
	for i := range dst {
		dst[i] *= scale
	}
	return dst
}

// checkFFTKernel runs Plan.Forward/Inverse and RealPlan.Forward/Inverse
// on src and compares every output with the frozen butterfly loop.
func checkFFTKernel(t *testing.T, src []complex128) {
	t.Helper()
	n := len(src)
	p, err := PlanFor(n)
	if err != nil {
		t.Fatal(err)
	}
	compare := func(what string, got, want []complex128) {
		t.Helper()
		for i := range want {
			if !sameComplex(got[i], want[i]) {
				t.Fatalf("n=%d %s bin %d: kernel %v, stage-by-stage loop %v", n, what, i, got[i], want[i])
			}
		}
	}
	got := make([]complex128, n)
	if err := p.Forward(got, src); err != nil {
		t.Fatal(err)
	}
	compare("Plan.Forward", got, refForward(p, src))
	if err := p.Inverse(got, src); err != nil {
		t.Fatal(err)
	}
	compare("Plan.Inverse", got, refInverse(p, src))
	if n < 2 {
		return
	}

	rp, err := RealPlanFor(n)
	if err != nil {
		t.Fatal(err)
	}
	re := make([]float64, n)
	for i, v := range src {
		re[i] = real(v)
	}
	if err := rp.Forward(got, re); err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, n)
	rp.realStages(want, re)
	butterfliesRadix2(want, p.twiddles, 8, false)
	compare("RealPlan.Forward", got, want)

	gotRe := make([]float64, n)
	if err := rp.Inverse(gotRe, src, make([]complex128, n)); err != nil {
		t.Fatal(err)
	}
	p.permute(want, src)
	butterfliesRadix2(want, p.twiddles, 2, true)
	invN := 1 / float64(n)
	for i, v := range want {
		if w := real(v) * invN; !sameFloat(gotRe[i], w) {
			t.Fatalf("n=%d RealPlan.Inverse sample %d: kernel %v, stage-by-stage loop %v", n, i, gotRe[i], w)
		}
	}
}

// specialValue draws from the values that expose operand-order and
// zero-sign differences: signed zeros, infinities, denormals and numbers
// near overflow.
func specialValue(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return math.Copysign(0, float64(rng.Intn(2))-0.5)
	case 1:
		return math.Copysign(math.Inf(1), float64(rng.Intn(2))-0.5)
	case 2:
		return rng.NormFloat64() * 1e-310
	case 3:
		return rng.NormFloat64() * 1e307
	default:
		return rng.NormFloat64()
	}
}

// forEachFusedPass runs f once on every fused-pass path this build can
// dispatch to: the vector pass when one is installed ("vec"), and the Go
// fusedPass forced ("go").
func forEachFusedPass(t *testing.T, f func(t *testing.T)) {
	vec := fusedPassVec
	defer func() { fusedPassVec = vec }()
	if vec != nil {
		t.Run("vec", f)
	}
	fusedPassVec = nil
	t.Run("go", f)
}

// TestFFTKernelBitIdenticalToStageLoop covers every size from 2 to 2^16:
// odd and even stage counts, so both the fused pass and the trailing
// radix-2 pass, entered at size 2 (Plan) and at size 8 (RealPlan), on
// every fused-pass path.
func TestFFTKernelBitIdenticalToStageLoop(t *testing.T) {
	forEachFusedPass(t, checkFFTKernelSizes)
}

func checkFFTKernelSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= 1<<16; n <<= 1 {
		signedZero := func() float64 { return math.Copysign(0, float64(rng.Intn(2))-0.5) }
		trials := []func() complex128{
			func() complex128 { return complex(rng.NormFloat64(), rng.NormFloat64()) },
			// Only exact zeros of both signs: every intermediate is a
			// zero, so every butterfly's zero-sign rule reaches the
			// output.
			func() complex128 { return complex(signedZero(), signedZero()) },
			// Mostly signed zeros plus denormals.
			func() complex128 {
				if rng.Intn(4*n) == 0 {
					return complex(rng.NormFloat64()*1e-310, rng.NormFloat64())
				}
				return complex(signedZero(), signedZero())
			},
			// Huge values that overflow to ±Inf partway through.
			func() complex128 { return complex(rng.NormFloat64()*1e307, rng.NormFloat64()*1e307) },
			// Rare specials in an otherwise ordinary signal.
			func() complex128 {
				if rng.Intn(n) == 0 {
					return complex(specialValue(rng), specialValue(rng))
				}
				return complex(rng.NormFloat64(), rng.NormFloat64())
			},
		}
		for _, draw := range trials {
			src := make([]complex128, n)
			for i := range src {
				src[i] = draw()
			}
			checkFFTKernel(t, src)
		}
	}
}

// FuzzFFTKernel checks the fused kernel, on the dispatched path and with
// the Go fusedPass forced, against the frozen stage-by-stage loop on
// arbitrary inputs. The first byte picks the size 2^(b%13); the rest is
// read as little-endian float64 pairs, zero-padded.
func FuzzFFTKernel(f *testing.F) {
	seed := func(log2n byte, vals ...float64) []byte {
		b := []byte{log2n}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(seed(1, 1, 2, 3, 4))
	f.Add(seed(3, 1, negZero, negZero, 0, 5e-324, -1e-310, 1e308, -1e308, math.Inf(1), 0))
	f.Add(seed(5, 0.5, -0.25, math.NaN(), 1, 2, 3, math.Inf(-1), negZero))
	f.Add(seed(8, 1e307, 1e307, -1e307, 1e307, 3, 4, 5, 6, 7, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 1 << (data[0] % 13)
		src := make([]complex128, n)
		b := data[1:]
		for i := range src {
			if len(b) < 16 {
				break
			}
			src[i] = complex(math.Float64frombits(binary.LittleEndian.Uint64(b)),
				math.Float64frombits(binary.LittleEndian.Uint64(b[8:])))
			b = b[16:]
		}
		checkFFTKernel(t, src)
		vec := fusedPassVec
		defer func() { fusedPassVec = vec }()
		fusedPassVec = nil
		checkFFTKernel(t, src)
	})
}
