//go:build !purego

package dsp

import "testing"

func TestFIRAsmKernelBitIdentical(t *testing.T) {
	checkInteriorKernel(t, "firInterior8", 8, firInterior8)
}

func TestFIRAVXKernelBitIdentical(t *testing.T) {
	if !cpuAVX {
		t.Skip("CPU or OS without AVX")
	}
	checkInteriorKernel(t, "firInterior16AVX", 16, firInterior16AVX)
}
