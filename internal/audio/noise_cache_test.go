package audio

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"wearlock/internal/dsp"
)

// resetNoiseCaches empties the per-rate babble filter and hum tables so a
// test starts cold.
func resetNoiseCaches() {
	babbleFilters.Range(func(k, _ any) bool { babbleFilters.Delete(k); return true })
	humTables.Range(func(k, _ any) bool { humTables.Delete(k); return true })
}

// uncachedNoise renders hum or babble the way the generators did before
// the per-rate caches: hum evaluates every harmonic per sample, babble
// designs its band-pass on the spot.
func uncachedNoise(kind NoiseKind, n, rate int, rng *rand.Rand) ([]float64, error) {
	x := make([]float64, n)
	switch kind {
	case NoiseHum:
		base := 120.0
		harmonics := []float64{1, 0.5, 0.3, 0.15, 0.08}
		for i := range x {
			t := float64(i) / float64(rate)
			var v float64
			for h, amp := range harmonics {
				v += amp * math.Sin(2*math.Pi*base*float64(h+1)*t)
			}
			x[i] = v + 0.1*rng.NormFloat64()
		}
	case NoiseBabble:
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		bp, err := dsp.BandPassFIR(300, 3400, float64(rate), 129)
		if err != nil {
			return nil, err
		}
		filtered := bp.Apply(x)
		step := max(rate/8, 1)
		points := make([]float64, len(filtered)/step+2)
		for i := range points {
			points[i] = 0.55 + 0.4*rng.Float64()
		}
		for i := range filtered {
			seg := i / step
			t := float64(i%step) / float64(step)
			x[i] = filtered[i] * (points[seg]*(1-t) + points[seg+1]*t)
		}
	default:
		return nil, fmt.Errorf("no uncached reference for %v", kind)
	}
	if n > 0 {
		dsp.NormalizeRMS(x, 1)
	}
	return x, nil
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestNoiseCachesConcurrent renders hum and babble from many goroutines
// at two rates, starting from empty caches and with lengths that force
// the hum tables to grow while other goroutines read them. Run under
// -race. Every render must match the uncached computation bit for bit.
func TestNoiseCachesConcurrent(t *testing.T) {
	resetNoiseCaches()
	lengths := []int{257, 4410, 1, 22050, 900, 44100, 12000, 3}
	type job struct {
		kind NoiseKind
		rate int
		n    int
		seed int64
	}
	var jobs []job
	for _, kind := range []NoiseKind{NoiseHum, NoiseBabble} {
		for _, rate := range []int{44100, 48000} {
			for i, n := range lengths {
				jobs = append(jobs, job{kind, rate, n, int64(100*i + rate)})
			}
		}
	}
	errs := make(chan error, len(jobs))
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			buf, err := Noise(j.kind, j.n, j.rate, rand.New(rand.NewSource(j.seed)))
			if err != nil {
				errs <- err
				return
			}
			want, err := uncachedNoise(j.kind, j.n, j.rate, rand.New(rand.NewSource(j.seed)))
			if err != nil {
				errs <- err
				return
			}
			if i := sameBits(buf.Samples, want); i >= 0 {
				errs <- fmt.Errorf("%v at %d Hz, n=%d: sample %d differs from the uncached render", j.kind, j.rate, j.n, i)
			}
		}(j)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHumTableBound pins the memory bound: a table never exceeds twice
// the longest request at its rate, and shorter requests reuse it.
func TestHumTableBound(t *testing.T) {
	resetNoiseCaches()
	const rate = 8000
	longest := 0
	for _, n := range []int{100, 1000, 150, 2500, 40, 2600} {
		w := humWaveform(rate, n)
		longest = max(longest, n)
		if len(w) != n {
			t.Fatalf("humWaveform(%d) returned %d samples", n, len(w))
		}
		v, _ := humTables.Load(rate)
		if got := len(*v.(*humTable).wave.Load()); got > 2*longest {
			t.Errorf("after a request of %d, table holds %d samples, over twice the longest request %d", n, got, longest)
		}
		for i, s := range w {
			if math.Float64bits(s) != math.Float64bits(humSample(i, rate)) {
				t.Fatalf("table sample %d differs from humSample", i)
			}
		}
	}
}

func TestNoiseIntoReusesBuffer(t *testing.T) {
	buf, err := NewBuffer(44100, 3000)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []NoiseKind{NoiseWhite, NoisePink, NoiseBabble, NoiseImpulsive, NoiseHum} {
		for i := range buf.Samples {
			buf.Samples[i] = 1e6 // leftovers from a previous render
		}
		if err := NoiseInto(buf, kind, rand.New(rand.NewSource(5))); err != nil {
			t.Fatal(err)
		}
		want, err := Noise(kind, 3000, 44100, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		if i := sameBits(buf.Samples, want.Samples); i >= 0 {
			t.Errorf("%v: NoiseInto over a used buffer differs from Noise at sample %d", kind, i)
		}
	}
}
