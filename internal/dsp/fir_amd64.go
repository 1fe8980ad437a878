//go:build !purego

package dsp

// firInterior8 is the SSE2 kernel in fir_amd64.s: every whole block of
// eight outputs of out[i] = sum over j ascending of taps[j]*x[i+len(taps)-1-j].
// SSE2 is the amd64 baseline, so it needs no CPU feature check.
//
//go:noescape
func firInterior8(out, x, taps []float64)

// firInterior16AVX is the AVX kernel in fir_amd64.s: the same sums as
// firInterior8, for every whole block of sixteen outputs.
//
//go:noescape
func firInterior16AVX(out, x, taps []float64)

func init() {
	firBlocks8 = firInterior8
	if cpuAVX {
		firBlocks16 = firInterior16AVX
	}
}
