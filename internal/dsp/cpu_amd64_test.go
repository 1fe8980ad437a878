//go:build !purego

package dsp

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestAVXProbeMatchesCPUInfo checks the CPUID probe against the kernel's
// view: Linux lists the avx flag only when the CPU has AVX and the kernel
// enabled YMM state in XCR0.
func TestAVXProbeMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux only")
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		avx := false
		for _, f := range strings.Fields(flags) {
			avx = avx || f == "avx"
		}
		if avx != cpuAVX {
			t.Fatalf("CPUID probe says AVX=%v, /proc/cpuinfo flags say %v", cpuAVX, avx)
		}
		if got := fusedPassVec != nil; got != cpuAVX {
			t.Fatalf("AVX=%v but vector FFT pass installed=%v", cpuAVX, got)
		}
		if got := firBlocks16 != nil; got != cpuAVX {
			t.Fatalf("AVX=%v but sixteen-lane FIR kernel installed=%v", cpuAVX, got)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
