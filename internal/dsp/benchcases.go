package dsp

import (
	"math"
	"math/rand"
)

// BenchCase is one old-vs-new benchmark pair of the DSP fast-path
// regression gate; see the identically named type in the modem package.
// Old runs one iteration of the allocating entry point, New one iteration
// of the scratch-accepting fast path on persistent buffers.
type BenchCase struct {
	Name                string
	MinSpeedup          float64
	RequireZeroAllocNew bool
	Old, New            func() error
}

// BenchCases builds the dsp benchmark pairs over deterministic fixtures
// sized like the session hot path: 256-point symbol transforms, a
// 16k-point round trip like the mic phase ripple's, a preamble search
// over an 8k-sample recording, the 8-pilot-to-32-bin equalizer
// interpolation, the three-bin tone detector, and the 129-tap voice-band
// FIR the babble-noise generator runs over a probe-length recording.
func BenchCases() ([]BenchCase, error) {
	sig := benchCaseSignal(8192)
	sym := benchCaseSignal(256)
	tmpl := benchCaseSignal(256)

	p, err := PlanFor(256)
	if err != nil {
		return nil, err
	}
	rp, err := RealPlanFor(256)
	if err != nil {
		return nil, err
	}
	fwdBuf := make([]complex128, 256)

	p16k, err := PlanFor(1 << 14)
	if err != nil {
		return nil, err
	}
	sig16k := benchCaseSignal(1 << 14)
	src16k := make([]complex128, len(sig16k))
	for i, v := range sig16k {
		src16k[i] = complex(v, 0)
	}
	buf16k := make([]complex128, len(src16k))
	scale16k := complex(1/float64(len(src16k)), 0)

	corr, err := NewCorrelator(tmpl)
	if err != nil {
		return nil, err
	}
	corrDst := make([]float64, corr.OutLen(len(sig)))

	pilots := make([]complex128, 8)
	for i := range pilots {
		pilots[i] = complex(math.Sin(float64(i)), math.Cos(float64(i)))
	}
	interpDst := make([]complex128, 32)
	interpScratch := make([]complex128, 8)

	tone := benchCaseSignal(4096)
	freqs := []float64{1000, 1450, 550}
	var toneDst [3]float64

	fir, err := BandPassFIR(300, 3400, 44100, 129)
	if err != nil {
		return nil, err
	}
	firIn := benchCaseSignal(22050)
	firDst := make([]float64, len(firIn))

	cases := []BenchCase{
		{
			Name:                "dsp/fft-real-256",
			RequireZeroAllocNew: true,
			Old: func() error {
				for j, v := range sym {
					fwdBuf[j] = complex(v, 0)
				}
				return p.Forward(fwdBuf, fwdBuf)
			},
			New: func() error {
				return rp.Forward(fwdBuf, sym)
			},
		},
		{
			Name: "dsp/fft-16k",
			// 1.24-1.92x over five benchdsp runs on a 2-vCPU amd64 VM
			// (1.44-1.54x as a min of 15 interleaved rounds); the floor
			// leaves room for host noise.
			MinSpeedup:          1.15,
			RequireZeroAllocNew: true,
			Old: func() error {
				p16k.permute(buf16k, src16k)
				butterfliesRadix2(buf16k, p16k.twiddles, 2, false)
				p16k.permute(buf16k, buf16k)
				butterfliesRadix2(buf16k, p16k.twiddles, 2, true)
				for i := range buf16k {
					buf16k[i] *= scale16k
				}
				return nil
			},
			New: func() error {
				if err := p16k.Forward(buf16k, src16k); err != nil {
					return err
				}
				return p16k.Inverse(buf16k, buf16k)
			},
		},
		{
			Name:                "dsp/preamble-correlate-8k",
			MinSpeedup:          1.2,
			RequireZeroAllocNew: true,
			Old: func() error {
				_, err := CrossCorrelate(sig, tmpl)
				return err
			},
			New: func() error {
				return corr.CrossCorrelate(corrDst, sig)
			},
		},
		{
			Name:                "dsp/interpolate-fft-8to32",
			MinSpeedup:          1.2,
			RequireZeroAllocNew: true,
			Old: func() error {
				_, err := InterpolateFFT(pilots, 32)
				return err
			},
			New: func() error {
				return InterpolateFFTInto(interpDst, pilots, interpScratch)
			},
		},
		{
			Name:                "dsp/goertzel-3bins",
			MinSpeedup:          1.2,
			RequireZeroAllocNew: true,
			Old: func() error {
				for _, f := range freqs {
					if _, err := Goertzel(tone, f, 44100); err != nil {
						return err
					}
				}
				return nil
			},
			New: func() error {
				return GoertzelBatch(toneDst[:], tone, freqs, 44100)
			},
		},
		{
			Name: "dsp/fir-129",
			// 1.75-3.2x over eight runs on a 2-vCPU amd64 VM; the floor
			// leaves room for host noise.
			MinSpeedup:          1.4,
			RequireZeroAllocNew: true,
			Old: func() error {
				firDirectForm(firDst, firIn, fir.taps, len(fir.taps)/2)
				return nil
			},
			New: func() error {
				return fir.ApplyInto(firDst, firIn)
			},
		},
	}

	// The vector kernels against the kernels they replace, on CPUs that
	// run them.
	if fusedPassVec != nil {
		cases = append(cases, BenchCase{
			Name: "dsp/fft-16k-vec",
			// 1.60-1.84x over six benchdsp runs on a 2-vCPU amd64 VM; the
			// floor leaves room for host noise.
			MinSpeedup:          1.3,
			RequireZeroAllocNew: true,
			Old: func() error {
				p16k.permute(buf16k, src16k)
				p16k.butterfliesVia(nil, buf16k, 2, false)
				p16k.permute(buf16k, buf16k)
				p16k.butterfliesVia(nil, buf16k, 2, true)
				for i := range buf16k {
					buf16k[i] *= scale16k
				}
				return nil
			},
			New: func() error {
				if err := p16k.Forward(buf16k, src16k); err != nil {
					return err
				}
				return p16k.Inverse(buf16k, buf16k)
			},
		})
	}
	if firBlocks16 != nil && firBlocks8 != nil {
		// Both kernels over the same interior outputs, a whole number of
		// blocks of sixteen.
		nt := len(fir.taps)
		n := (len(firIn) - nt + 1) &^ 15
		out, x := firDst[:n], firIn[:n+nt-1]
		cases = append(cases, BenchCase{
			Name: "dsp/fir-129-vec",
			// 2.21-2.76x over six benchdsp runs on a 2-vCPU amd64 VM; the
			// floor leaves room for host noise.
			MinSpeedup:          1.7,
			RequireZeroAllocNew: true,
			Old: func() error {
				firBlocks8(out, x, fir.taps)
				return nil
			},
			New: func() error {
				firBlocks16(out, x, fir.taps)
				return nil
			},
		})
	}
	return cases, nil
}

// firDirectForm is the original one-output-at-a-time FIR loop, with a
// range check on every term. It is kept frozen as the baseline of the
// dsp/fir-129 pair and as the reference the blocked kernel is proven
// bit-identical against; do not optimize it.
func firDirectForm(out, x, taps []float64, delay int) {
	for i := range out {
		var sum float64
		for j, tap := range taps {
			k := i + delay - j
			if k >= 0 && k < len(x) {
				sum += tap * x[k]
			}
		}
		out[i] = sum
	}
}

// butterfliesRadix2 is the original stage-by-stage butterfly loop of
// Plan, one radix-2 stage per pass over data, with the inverse branch
// inside the loop. twiddles is the plan's e^{-2πik/n} table. It is kept
// frozen as the baseline of the dsp/fft-16k pair and as the reference the
// fused kernel is proven bit-identical against; do not optimize it.
func butterfliesRadix2(data, twiddles []complex128, fromSize int, inverse bool) {
	n := len(data)
	for size := fromSize; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			a0 := data[start]
			b0 := data[start+half]
			data[start] = a0 + b0
			data[start+half] = a0 - b0
			for k := 1; k < half; k++ {
				w := twiddles[k*step]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				a := data[start+k]
				b := data[start+k+half] * w
				data[start+k] = a + b
				data[start+k+half] = a - b
			}
		}
	}
}

func benchCaseSignal(n int) []float64 {
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)*0.1) + 0.3*rng.NormFloat64()
	}
	return x
}
