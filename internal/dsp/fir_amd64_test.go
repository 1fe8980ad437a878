package dsp

import "testing"

func TestFIRAsmKernelBitIdentical(t *testing.T) {
	checkInteriorKernel(t, "firInterior8", 8, firInterior8)
}
