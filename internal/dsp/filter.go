package dsp

import (
	"fmt"
	"math"
)

// FIRFilter is a finite-impulse-response filter defined by its tap
// coefficients. The zero value is unusable; construct filters with
// LowPassFIR, HighPassFIR, BandPassFIR, or NewFIRFilter.
type FIRFilter struct {
	taps []float64
}

// NewFIRFilter wraps an explicit tap vector as a filter. The taps are
// copied so the caller may reuse its slice.
func NewFIRFilter(taps []float64) (*FIRFilter, error) {
	if len(taps) == 0 {
		return nil, fmt.Errorf("dsp: FIR filter requires at least one tap")
	}
	out := make([]float64, len(taps))
	copy(out, taps)
	return &FIRFilter{taps: out}, nil
}

// Taps returns a copy of the filter coefficients.
func (f *FIRFilter) Taps() []float64 {
	out := make([]float64, len(f.taps))
	copy(out, f.taps)
	return out
}

// Len reports the number of taps.
func (f *FIRFilter) Len() int { return len(f.taps) }

// Apply filters x and returns a new slice of the same length. The filter
// output is aligned so that the group delay of the (linear-phase) filter is
// compensated: output sample i corresponds to input sample i.
func (f *FIRFilter) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	firInto(out, x, f.taps, len(f.taps)/2)
	return out
}

// ApplyInto is Apply writing into dst, which must have length len(x) and
// must not overlap x. Results are bit-identical to Apply.
func (f *FIRFilter) ApplyInto(dst, x []float64) error {
	if len(dst) != len(x) {
		return fmt.Errorf("dsp: FIR dst length %d, want %d", len(dst), len(x))
	}
	firInto(dst, x, f.taps, len(f.taps)/2)
	return nil
}

// ApplyCausal filters x without group-delay compensation, as a streaming
// convolution would: output sample i depends only on inputs <= i.
func (f *FIRFilter) ApplyCausal(x []float64) []float64 {
	out := make([]float64, len(x))
	firInto(out, x, f.taps, 0)
	return out
}

// firBlocks8 and firBlocks16, when set, compute every whole block of
// eight (sixteen) outputs of out[i] = sum over j ascending of
// taps[j]*x[i+len(taps)-1-j], with the same per-output arithmetic as
// firInterior4. fir_amd64.go sets firBlocks8 to the SSE2 kernel, and
// firBlocks16 to the AVX kernel when the CPU has AVX; elsewhere they stay
// nil and the Go kernel does all interior outputs.
var firBlocks8, firBlocks16 func(out, x, taps []float64)

// firInto writes out[i] = sum over j of taps[j]*x[i+delay-j], skipping
// terms whose input index falls outside x. Every output has its own
// accumulator and adds its terms with j ascending, exactly as the
// one-output-at-a-time direct form does, so each output is bit-identical
// to it (up to NaN payloads; see DESIGN.md §10.5). Interior outputs, whose
// terms are all in range, go sixteen at a time through firBlocks16, then
// eight at a time through firBlocks8, and the rest four at a time through
// firInterior4; no interior term is range-tested. The edges and the last
// few interior outputs keep the checked loop.
func firInto(out, x, taps []float64, delay int) {
	// Output i is interior when i+delay-(len(taps)-1) >= 0 and
	// i+delay < len(x); out and x have the same length.
	lo := min(max(len(taps)-1-delay, 0), len(out))
	hi := max(len(out)-delay, lo)
	firEdge(out, x, taps, delay, 0, lo)
	i := firBlocks(firBlocks16, 16, out, x, taps, delay, lo, hi)
	i = firBlocks(firBlocks8, 8, out, x, taps, delay, i, hi)
	i = firInterior4(out, x, taps, delay, i, hi)
	firEdge(out, x, taps, delay, i, len(out))
}

// firBlocks hands the interior outputs [from, to) to kernel in whole
// blocks of block outputs and returns the first output it left. A nil
// kernel leaves them all.
func firBlocks(kernel func(out, x, taps []float64), block int, out, x, taps []float64, delay, from, to int) int {
	n := (to - from) / block * block
	if n == 0 || kernel == nil {
		return from
	}
	kernel(out[from:from+n], x[from+delay-(len(taps)-1):from+n+delay], taps)
	return from + n
}

// firInterior4 computes the interior outputs [from, to) four at a time:
// one load of each tap feeds four independent accumulators. It returns
// the first output it left for the caller (fewer than four remain).
func firInterior4(out, x, taps []float64, delay, from, to int) int {
	i := from
	for ; i+4 <= to; i += 4 {
		k := i + delay
		var s0, s1, s2, s3 float64
		for j, tap := range taps {
			w := x[k-j : k-j+4 : k-j+4]
			s0 += tap * w[0]
			s1 += tap * w[1]
			s2 += tap * w[2]
			s3 += tap * w[3]
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	return i
}

// firEdge is the checked direct form for outputs [from, to): the edges,
// whose taps may reach outside x, and the last few interior outputs.
func firEdge(out, x, taps []float64, delay, from, to int) {
	for i := from; i < to; i++ {
		var sum float64
		for j, tap := range taps {
			if k := i + delay - j; k >= 0 && k < len(x) {
				sum += tap * x[k]
			}
		}
		out[i] = sum
	}
}

func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	return math.Sin(math.Pi*x) / (math.Pi * x)
}

// LowPassFIR designs a windowed-sinc low-pass filter with the given cutoff
// frequency (Hz) at the given sampling rate (Hz) using numTaps taps and a
// Hamming window. numTaps is forced odd so the filter is symmetric.
func LowPassFIR(cutoffHz, sampleRate float64, numTaps int) (*FIRFilter, error) {
	if cutoffHz <= 0 || cutoffHz >= sampleRate/2 {
		return nil, fmt.Errorf("dsp: cutoff %.1f Hz outside (0, %.1f)", cutoffHz, sampleRate/2)
	}
	if numTaps < 3 {
		return nil, fmt.Errorf("dsp: low-pass filter needs at least 3 taps, got %d", numTaps)
	}
	if numTaps%2 == 0 {
		numTaps++
	}
	fc := cutoffHz / sampleRate
	taps := make([]float64, numTaps)
	window, err := Window(WindowHamming, numTaps)
	if err != nil {
		return nil, err
	}
	mid := numTaps / 2
	var sum float64
	for i := range taps {
		taps[i] = 2 * fc * sinc(2*fc*float64(i-mid)) * window[i]
		sum += taps[i]
	}
	// Normalize for unity DC gain.
	for i := range taps {
		taps[i] /= sum
	}
	return &FIRFilter{taps: taps}, nil
}

// HighPassFIR designs a windowed-sinc high-pass filter by spectral inversion
// of the complementary low-pass filter.
func HighPassFIR(cutoffHz, sampleRate float64, numTaps int) (*FIRFilter, error) {
	lp, err := LowPassFIR(cutoffHz, sampleRate, numTaps)
	if err != nil {
		return nil, err
	}
	taps := lp.taps
	for i := range taps {
		taps[i] = -taps[i]
	}
	taps[len(taps)/2] += 1
	return &FIRFilter{taps: taps}, nil
}

// BandPassFIR designs a windowed-sinc band-pass filter passing
// [lowHz, highHz].
func BandPassFIR(lowHz, highHz, sampleRate float64, numTaps int) (*FIRFilter, error) {
	if lowHz >= highHz {
		return nil, fmt.Errorf("dsp: band-pass low %.1f >= high %.1f", lowHz, highHz)
	}
	lpHigh, err := LowPassFIR(highHz, sampleRate, numTaps)
	if err != nil {
		return nil, err
	}
	lpLow, err := LowPassFIR(lowHz, sampleRate, numTaps)
	if err != nil {
		return nil, err
	}
	taps := lpHigh.taps
	for i := range taps {
		taps[i] -= lpLow.taps[i]
	}
	return &FIRFilter{taps: taps}, nil
}

// Convolve returns the full linear convolution of a and b, of length
// len(a)+len(b)-1. The acoustic channel simulator uses this to apply
// speaker/room impulse responses.
func Convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]float64, len(a)+len(b)-1)
	if err := ConvolveInto(out, a, b); err != nil {
		return nil
	}
	return out
}

// ConvolveInto writes the full linear convolution of a and b into dst,
// which must have length len(a)+len(b)-1. Frequency-domain scratch comes
// from the shared pool, so steady-state calls allocate nothing. Results
// are bit-identical to Convolve.
func ConvolveInto(dst, a, b []float64) error {
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("dsp: convolution with empty input")
	}
	if want := len(a) + len(b) - 1; len(dst) != want {
		return fmt.Errorf("dsp: convolution dst length %d, want %d", len(dst), want)
	}
	// Frequency-domain convolution for large inputs.
	if len(a)*len(b) > 1<<16 {
		n := NextPow2(len(dst))
		if p, err := planFor(n); err == nil {
			fa := GetComplex(n)
			fb := GetComplex(n)
			for i, v := range a {
				fa[i] = complex(v, 0)
			}
			for i, v := range b {
				fb[i] = complex(v, 0)
			}
			if p.Forward(fa, fa) == nil && p.Forward(fb, fb) == nil {
				for i := range fa {
					fa[i] *= fb[i]
				}
				if p.Inverse(fa, fa) == nil {
					for i := range dst {
						dst[i] = real(fa[i])
					}
					PutComplex(fa)
					PutComplex(fb)
					return nil
				}
			}
			PutComplex(fa)
			PutComplex(fb)
		}
	}
	for i := range dst {
		dst[i] = 0
	}
	for i, av := range a {
		for j, bv := range b {
			dst[i+j] += av * bv
		}
	}
	return nil
}
