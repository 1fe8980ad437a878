//go:build !purego

package dsp

// hasAVX is the CPUID probe in cpu_amd64.s: it reports whether the CPU
// implements AVX and the OS saves the YMM registers on a context switch.
func hasAVX() bool

// cpuAVX is probed once, at package initialization, before the init
// functions that install the AVX kernels read it.
var cpuAVX = hasAVX()
