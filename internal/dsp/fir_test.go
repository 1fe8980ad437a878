package dsp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkFIRBitIdentical runs Apply, ApplyInto and ApplyCausal on x and
// compares every output bit pattern against the frozen direct-form loop,
// under the sameFloat contract: NaN payloads are free, NaN-ness is not.
func checkFIRBitIdentical(t *testing.T, taps, x []float64) {
	t.Helper()
	f, err := NewFIRFilter(taps)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(x))
	firDirectForm(want, x, taps, len(taps)/2)
	into := make([]float64, len(x))
	for i := range into {
		into[i] = math.NaN() // every output must be overwritten
	}
	if err := f.ApplyInto(into, x); err != nil {
		t.Fatal(err)
	}
	wantCausal := make([]float64, len(x))
	firDirectForm(wantCausal, x, taps, 0)
	for _, got := range []struct {
		name      string
		out, want []float64
	}{
		{"Apply", f.Apply(x), want},
		{"ApplyInto", into, want},
		{"ApplyCausal", f.ApplyCausal(x), wantCausal},
	} {
		if len(got.out) != len(got.want) {
			t.Fatalf("%s: %d taps, len(x)=%d: output length %d, want %d", got.name, len(taps), len(x), len(got.out), len(got.want))
		}
		for i := range got.out {
			if !sameFloat(got.out[i], got.want[i]) {
				t.Fatalf("%s: %d taps, len(x)=%d: out[%d] = %v (%#x), direct form %v (%#x)",
					got.name, len(taps), len(x), i, got.out[i], math.Float64bits(got.out[i]), got.want[i], math.Float64bits(got.want[i]))
			}
		}
	}
}

func TestFIRApplyBitIdenticalToDirectForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, nt := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 31, 32, 63, 64, 129} {
		taps := make([]float64, nt)
		for i := range taps {
			taps[i] = rng.NormFloat64()
		}
		// Every input length from empty through three filter lengths,
		// which covers inputs shorter than the filter, inputs with no
		// interior outputs, and every remainder of the four-wide kernel.
		for n := 0; n <= 3*nt+4; n++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64() * math.Exp(4*rng.NormFloat64())
			}
			checkFIRBitIdentical(t, taps, x)
		}
	}
}

func TestFIRApplyBitIdenticalDesignedFilters(t *testing.T) {
	bp, err := BandPassFIR(300, 3400, 44100, 129)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := LowPassFIR(6500, 44100, 31)
	if err != nil {
		t.Fatal(err)
	}
	x := benchCaseSignal(22050)
	checkFIRBitIdentical(t, bp.taps, x)
	checkFIRBitIdentical(t, lp.taps, x)
}

// interiorKernel computes out[i] = sum over j ascending of
// taps[j]*x[i+len(taps)-1-j] for every whole block of outputs.
type interiorKernel func(out, x, taps []float64)

// checkInteriorKernel compares a kernel of the given block size with the
// direct form for 1-130 taps and output counts around multiples of eight. out, x and taps are
// cut from their backing arrays at odd element offsets, so no 16-byte
// load is aligned, and are fenced by NaN: a read past either end of x
// shows up as a NaN output, a write past the computed prefix as a changed
// fence.
func checkInteriorKernel(t *testing.T, name string, block int, kernel interiorKernel) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	value := func() float64 {
		switch rng.Intn(16) {
		case 0:
			return math.Copysign(0, float64(rng.Intn(2))-0.5)
		case 1:
			return rng.NormFloat64() * 1e-310
		default:
			return rng.NormFloat64() * math.Exp(4*rng.NormFloat64())
		}
	}
	// fenced returns n values at an odd offset in a NaN-filled backing.
	fenced := func(n int, fill bool) []float64 {
		b := make([]float64, n+4)
		for i := range b {
			b[i] = math.NaN()
		}
		s := b[3 : 3+n : 3+n]
		if fill {
			for i := range s {
				s[i] = value()
			}
		}
		return s
	}
	for nt := 1; nt <= 130; nt++ {
		taps := fenced(nt, true)
		for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 63, 64, 65} {
			x := fenced(n+nt-1, true)
			out := fenced(n, false)
			kernel(out, x, taps)
			done := n - n%block
			want := make([]float64, n)
			firDirectForm(want, x, taps, nt-1)
			for i := range out {
				if i >= done {
					if !math.IsNaN(out[i]) {
						t.Fatalf("%s: %d taps, %d outputs: wrote out[%d] beyond its %d", name, nt, n, i, done)
					}
					continue
				}
				if !sameFloat(out[i], want[i]) {
					t.Fatalf("%s: %d taps, %d outputs: out[%d] = %v (%#x), direct form %v (%#x)",
						name, nt, n, i, out[i], math.Float64bits(out[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

func TestFIRGoKernelBitIdentical(t *testing.T) {
	checkInteriorKernel(t, "firInterior4", 4, func(out, x, taps []float64) {
		firInterior4(out, x, taps, len(taps)-1, 0, len(out))
	})
}

func TestFIRApplyIntoValidation(t *testing.T) {
	f, err := NewFIRFilter([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ApplyInto(make([]float64, 3), make([]float64, 4)); err == nil {
		t.Error("ApplyInto accepted a dst of the wrong length")
	}
}

func TestFIRApplyIntoAllocsNothing(t *testing.T) {
	f, err := BandPassFIR(300, 3400, 44100, 129)
	if err != nil {
		t.Fatal(err)
	}
	x := benchCaseSignal(1024)
	dst := make([]float64, len(x))
	if allocs := testing.AllocsPerRun(10, func() { _ = f.ApplyInto(dst, x) }); allocs != 0 {
		t.Errorf("ApplyInto allocated %.1f objects per run, want 0", allocs)
	}
}

// FuzzFIRApply checks the blocked kernel against the direct form on
// arbitrary tap vectors and inputs, special values included. The first
// byte picks the tap count; the rest is read as little-endian float64s.
func FuzzFIRApply(f *testing.F) {
	seed := func(nt byte, vals ...float64) []byte {
		b := []byte{nt}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 0.5, 1, 2, 3))
	f.Add(seed(2, 0.5, -0.5, 1, 2, 3, 4, 5, 6, 7))
	f.Add(seed(5, 1, 2, 3, 2, 1, 0.1, 0.2))
	f.Add(seed(3, 1, -1, 1, math.Inf(1), 0, math.Copysign(0, -1), 1e308, 1e308, -1e-310, 5))
	f.Add(seed(4, 0.25, 0.25, 0.25, 0.25, math.NaN(), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		nt := int(data[0]%64) + 1
		var vals []float64
		for b := data[1:]; len(b) >= 8; b = b[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		if len(vals) < nt {
			return
		}
		checkFIRBitIdentical(t, vals[:nt], vals[nt:])
	})
}
