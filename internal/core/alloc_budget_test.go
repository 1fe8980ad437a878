package core_test

import (
	"runtime"
	"testing"

	"wearlock/internal/core"
)

// Session allocation budget for the default scenario. The DSP fast-path
// gate (cmd/benchdsp) proves individual kernels allocation-free but never
// sees a whole session, where the simulated room render, the recordings
// and the per-phase modem objects allocate. Measured on a 2-vCPU amd64 VM
// with go1.24: 1.6-2.0 MB and 218-234 allocations per session at
// GOMAXPROCS=2, 1.37 MB and 207 at GOMAXPROCS=1 (the spread is sync.Pool
// misses around GCs). Before the cached noise tables, shared preamble
// spectra and pooled render buffers the same test measured 7.1 MB and 380.
// The ceilings sit about 30% above the worst run.
const (
	sessionBytesCeiling  = 2.6e6
	sessionAllocsCeiling = 290
)

func TestSessionAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget runs whole sessions")
	}
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop buffers at random")
	}
	sys := newSystem(t, nil, 1)
	sc := core.DefaultScenario()
	run := func(n int) {
		for i := 0; i < n; i++ {
			res, err := sys.Unlock(sc)
			if err != nil {
				t.Fatalf("Unlock: %v", err)
			}
			if res.Outcome == core.OutcomeLockedOut {
				sys.ManualUnlock()
			}
		}
	}
	run(3) // warm the per-rate tables, shared preambles and pools
	const sessions = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run(sessions)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / sessions
	allocs := float64(after.Mallocs-before.Mallocs) / sessions
	t.Logf("default-scenario session: %.0f bytes, %.1f allocations", bytes, allocs)
	if bytes > sessionBytesCeiling {
		t.Errorf("session allocates %.0f bytes, ceiling %.0f", bytes, sessionBytesCeiling)
	}
	if allocs > sessionAllocsCeiling {
		t.Errorf("session makes %.1f allocations, ceiling %d", allocs, sessionAllocsCeiling)
	}
}
