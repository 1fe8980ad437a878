//go:build !purego

package dsp

// fusedPassAVX is fusedPass in fft_amd64.s for h >= 4: the same
// butterflies with the same operands, on two complex128 per YMM register.
//
//go:noescape
func fusedPassAVX(data, tw []complex128, h int, sign float64)

func init() {
	if cpuAVX {
		fusedPassVec = fusedPassAVX
	}
}
