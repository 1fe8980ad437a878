package modem

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"wearlock/internal/audio"
	"wearlock/internal/dsp"
)

// sharedPreambleRecordings builds noisy loopback recordings of one frame
// with silence heads of different lengths, so the preamble search runs at
// several transform sizes.
func sharedPreambleRecordings(t *testing.T, cfg Config) ([]*audio.Buffer, []byte) {
	t.Helper()
	mod, err := NewModulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	bits := RandomBits(64, rng)
	frame, err := mod.Modulate(bits)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*audio.Buffer
	for _, head := range []int{2048, 9000, 30000} {
		rec, err := audio.NewBuffer(cfg.SampleRate, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec.AppendSilence(head)
		rec.AppendSamples(frame.Samples)
		rec.AppendSilence(1024)
		for i := range rec.Samples {
			rec.Samples[i] += 0.01 * rng.NormFloat64()
		}
		recs = append(recs, rec)
	}
	return recs, bits
}

// TestSharedPreambleConcurrentDemodulators builds two Demodulators of one
// config from a cold preamble cache and runs them concurrently, so the
// shared template spectra are computed and read from both goroutines at
// once. Run under -race. Each result must equal that of a demodulator with
// a private, freshly transformed template.
func TestSharedPreambleConcurrentDemodulators(t *testing.T) {
	preambles.Range(func(k, _ any) bool { preambles.Delete(k); return true })
	cfg := DefaultConfig(BandAudible, QPSK)
	recs, bits := sharedPreambleRecordings(t, cfg)

	private, err := NewDemodulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if private.tmpl, err = dsp.NewCorrelationTemplate(private.preamble.Samples); err != nil {
		t.Fatal(err)
	}
	type want struct {
		rx    *RxResult
		probe *ProbeAnalysis
	}
	wants := make([]want, len(recs))
	for i, rec := range recs {
		rx, err := private.Demodulate(rec, len(bits))
		if err != nil {
			t.Fatalf("private demodulator, recording %d: %v", i, err)
		}
		probe, err := private.AnalyzeProbe(rec)
		if err != nil {
			t.Fatalf("private demodulator, recording %d: %v", i, err)
		}
		wants[i] = want{rx, probe}
	}
	preambles.Range(func(k, _ any) bool { preambles.Delete(k); return true })

	demods := make([]*Demodulator, 2)
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for g := range demods {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d, err := NewDemodulator(cfg)
			if err != nil {
				errs <- err
				return
			}
			demods[g] = d
			for round := 0; round < 3; round++ {
				for k := range recs {
					i := (k + g) % len(recs) // the two goroutines start on different sizes
					rx, err := d.Demodulate(recs[i], len(bits))
					if err != nil {
						errs <- err
						return
					}
					probe, err := d.AnalyzeProbe(recs[i])
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(rx, wants[i].rx) {
						errs <- fmt.Errorf("demodulator %d, recording %d: Demodulate differs from the private-template result", g, i)
					}
					if !reflect.DeepEqual(probe, wants[i].probe) {
						errs <- fmt.Errorf("demodulator %d, recording %d: AnalyzeProbe differs from the private-template result", g, i)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	if demods[0].tmpl != demods[1].tmpl || demods[0].preamble != demods[1].preamble {
		t.Error("demodulators of one config do not share the preamble and its template")
	}
	mod, err := NewModulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mod.preamble != demods[0].preamble {
		t.Error("modulator does not share the demodulators' preamble")
	}
}

// TestSharedPreambleKey checks that configs which synthesize different
// chirps get different shared preambles, and equal chirps the same one.
func TestSharedPreambleKey(t *testing.T) {
	audible := DefaultConfig(BandAudible, QPSK)
	other := DefaultConfig(BandAudible, QASK) // same chirp, other modulation
	ultra := DefaultConfig(BandNearUltrasound, QPSK)
	custom := audible
	custom.PreambleLowHz, custom.PreambleHighHz = 1500, 5500
	get := func(cfg Config) *sharedPreamble {
		t.Helper()
		sp, err := sharedPreambleFor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	if get(audible) != get(other) {
		t.Error("equal chirps got different shared preambles")
	}
	if get(audible) == get(ultra) || get(audible) == get(custom) {
		t.Error("different chirps share a preamble")
	}
	for _, cfg := range []Config{audible, ultra, custom} {
		want, err := Preamble(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(get(cfg).wave, want) {
			t.Errorf("shared preamble for %v differs from Preamble", cfg.Band)
		}
	}
}
