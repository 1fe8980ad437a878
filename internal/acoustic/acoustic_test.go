package acoustic

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"wearlock/internal/audio"
	"wearlock/internal/dsp"
)

func TestPropagationAttenuation(t *testing.T) {
	p := DefaultPropagation()
	// 6 dB per doubling with g = 1.
	a1, err := p.AttenuationDB(1)
	if err != nil {
		t.Fatalf("AttenuationDB: %v", err)
	}
	a2, err := p.AttenuationDB(2)
	if err != nil {
		t.Fatalf("AttenuationDB: %v", err)
	}
	if math.Abs((a2-a1)-20*math.Log10(2)) > 1e-9 {
		t.Errorf("doubling cost %.3f dB, want ~6.02", a2-a1)
	}
	// Inside the reference distance: no loss.
	a0, err := p.AttenuationDB(0.01)
	if err != nil || a0 != 0 {
		t.Errorf("inside-reference attenuation %.3f, %v", a0, err)
	}
	if _, err := p.AttenuationDB(0); err == nil {
		t.Error("accepted zero distance")
	}
	if _, err := (Propagation{G: 1}).AttenuationDB(1); err == nil {
		t.Error("accepted zero reference distance")
	}
}

func TestPropagationSPLAt(t *testing.T) {
	p := DefaultPropagation()
	spl, err := p.SPLAt(80, 0.05)
	if err != nil || spl != 80 {
		t.Errorf("SPL at reference = %f, %v", spl, err)
	}
	far, err := p.SPLAt(80, 3.2) // 6 doublings from 5 cm
	if err != nil {
		t.Fatalf("SPLAt: %v", err)
	}
	if math.Abs(far-(80-36.12)) > 0.1 {
		t.Errorf("SPL at 3.2 m = %f, want ~43.9", far)
	}
}

// Property: VolumeForRange and RangeForSNR are mutual inverses.
func TestLinkBudgetInverseProperty(t *testing.T) {
	p := DefaultPropagation()
	f := func(rawDist, rawNoise, rawSNR float64) bool {
		dist := math.Mod(math.Abs(rawDist), 5) + 0.1
		noise := math.Mod(math.Abs(rawNoise), 50) + 10
		snr := math.Mod(math.Abs(rawSNR), 30) + 1
		vol, err := p.VolumeForRange(dist, noise, snr)
		if err != nil {
			return false
		}
		back := p.RangeForSNR(vol, noise, snr)
		return math.Abs(back-dist)/dist < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// No headroom means the range collapses to the reference distance.
	if got := p.RangeForSNR(20, 40, 10); got != p.RefDistance {
		t.Errorf("underpowered range = %f, want reference %f", got, p.RefDistance)
	}
}

func TestDelaySamples(t *testing.T) {
	d := DelaySamples(SpeedOfSound, 44100) // exactly one second of travel
	if d != 44100 {
		t.Errorf("DelaySamples = %d, want 44100", d)
	}
	if DelaySamples(-1, 44100) != 0 || DelaySamples(1, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestNewLinkValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewLink(0, 1, PhoneSpeaker(), WatchMic(), nil, rng); err == nil {
		t.Error("accepted zero sample rate")
	}
	if _, err := NewLink(44100, 0, PhoneSpeaker(), WatchMic(), nil, rng); err == nil {
		t.Error("accepted zero distance")
	}
	if _, err := NewLink(44100, 1, PhoneSpeaker(), WatchMic(), nil, nil); err == nil {
		t.Error("accepted nil rng")
	}
}

func TestLinkTransmitLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	link, err := NewLink(44100, 0.5, PhoneSpeaker(), WatchMic(), QuietRoom(), rng)
	if err != nil {
		t.Fatalf("NewLink: %v", err)
	}
	tone, err := audio.Tone(3000, 1, 22050, 44100)
	if err != nil {
		t.Fatalf("Tone: %v", err)
	}
	rec, err := link.Transmit(tone, 70)
	if err != nil {
		t.Fatalf("Transmit: %v", err)
	}
	// Expected level: 70 dB at 5 cm, -20 dB at 0.5 m => ~50 dB.
	start := link.LeadIn + DelaySamples(0.5, 44100) + 441
	seg, err := rec.Slice(start, start+8820)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	got := audio.SPL(seg)
	if math.Abs(got-50) > 2 {
		t.Errorf("received SPL %.1f, want ~50", got)
	}
	// The lead-in must contain only ambient (about the environment SPL).
	head, err := rec.Slice(0, link.LeadIn/2)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if ambient := audio.SPL(head); ambient > 30 {
		t.Errorf("lead-in SPL %.1f, want near quiet-room ambient", ambient)
	}
}

func TestLinkRejectsRateMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	link, err := NewLink(44100, 0.5, PhoneSpeaker(), WatchMic(), nil, rng)
	if err != nil {
		t.Fatalf("NewLink: %v", err)
	}
	tone, err := audio.Tone(1000, 1, 100, 22050)
	if err != nil {
		t.Fatalf("Tone: %v", err)
	}
	if _, err := link.Transmit(tone, 70); err == nil {
		t.Error("accepted frame at the wrong sample rate")
	}
}

func TestLinkVolumeCappedBySpeaker(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	link, err := NewLink(44100, 0.1, PhoneSpeaker(), WatchMic(), nil, rng)
	if err != nil {
		t.Fatalf("NewLink: %v", err)
	}
	tone, err := audio.Tone(3000, 1, 8820, 44100)
	if err != nil {
		t.Fatalf("Tone: %v", err)
	}
	recLoud, err := link.Transmit(tone, 150) // far beyond MaxOutputDB
	if err != nil {
		t.Fatalf("Transmit: %v", err)
	}
	start := link.LeadIn + DelaySamples(0.1, 44100) + 441
	seg, _ := recLoud.Slice(start, start+4410)
	maxExpected, err := link.ReceiverSPL(PhoneSpeaker().MaxOutputDB)
	if err != nil {
		t.Fatalf("ReceiverSPL: %v", err)
	}
	if got := audio.SPL(seg); got > maxExpected+2 {
		t.Errorf("received %.1f dB exceeds speaker cap %.1f dB", got, maxExpected)
	}
}

func TestWatchMicLowPass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// A 17 kHz tone must be heavily attenuated by the watch microphone
	// but pass a phone microphone.
	measure := func(mic MicProfile) float64 {
		link, err := NewLink(44100, 0.2, PhoneSpeaker(), mic, nil, rng)
		if err != nil {
			t.Fatalf("NewLink: %v", err)
		}
		tone, err := audio.Tone(17000, 1, 8820, 44100)
		if err != nil {
			t.Fatalf("Tone: %v", err)
		}
		rec, err := link.Transmit(tone, 75)
		if err != nil {
			t.Fatalf("Transmit: %v", err)
		}
		start := link.LeadIn + 441
		seg, err := rec.Slice(start, start+4410)
		if err != nil {
			t.Fatalf("Slice: %v", err)
		}
		return audio.SPL(seg)
	}
	watch := measure(WatchMic())
	phone := measure(PhoneMic())
	if phone-watch < 20 {
		t.Errorf("watch mic attenuates 17 kHz by only %.1f dB vs phone mic", phone-watch)
	}
}

func TestEnvironmentLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, env := range append(AllEnvironments(), QuietRoom()) {
		buf, err := env.Render(44100/2, 44100, rng)
		if err != nil {
			t.Fatalf("%s: %v", env.Name, err)
		}
		if math.Abs(audio.SPL(buf)-env.NoiseSPL) > 0.5 {
			t.Errorf("%s rendered at %.1f dB, want %.1f", env.Name, audio.SPL(buf), env.NoiseSPL)
		}
	}
	empty := &Environment{Name: "empty", NoiseSPL: 40}
	if _, err := empty.Render(100, 44100, rng); err == nil {
		t.Error("accepted empty mix")
	}
}

func TestRenderPairCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	env := Cafe()
	corrOf := func(colocated bool) float64 {
		a, b, err := env.RenderPair(44100/2, 44100, colocated, rng)
		if err != nil {
			t.Fatalf("RenderPair: %v", err)
		}
		var dot, ea, eb float64
		for i := range a.Samples {
			dot += a.Samples[i] * b.Samples[i]
			ea += a.Samples[i] * a.Samples[i]
			eb += b.Samples[i] * b.Samples[i]
		}
		return dot / math.Sqrt(ea*eb)
	}
	co := corrOf(true)
	apart := corrOf(false)
	if co < 0.8 {
		t.Errorf("co-located ambient correlation %.3f, want > 0.8", co)
	}
	if math.Abs(apart) > 0.2 {
		t.Errorf("separated ambient correlation %.3f, want ~0", apart)
	}
}

func TestJammerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if _, err := NewJammer(50, 1, 2, 3, 4, 5, 6, 7); err == nil {
		t.Error("accepted more than MaxJammerTones")
	}
	if _, err := RandomJammer(50, 7, []float64{1, 2, 3, 4, 5, 6, 7, 8}, rng); err == nil {
		t.Error("accepted count above MaxJammerTones")
	}
	if _, err := RandomJammer(50, 3, []float64{1000}, rng); err == nil {
		t.Error("accepted more tones than candidates")
	}
	j, err := RandomJammer(50, 3, []float64{1000, 2000, 3000, 4000}, rng)
	if err != nil {
		t.Fatalf("RandomJammer: %v", err)
	}
	seen := map[float64]bool{}
	for _, f := range j.ToneHz {
		if seen[f] {
			t.Error("jammer picked duplicate tones")
		}
		seen[f] = true
	}
}

func TestJammerRenderLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	j, err := NewJammer(55, 3000)
	if err != nil {
		t.Fatalf("NewJammer: %v", err)
	}
	buf, err := j.Render(44100/2, 44100, rng)
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	if math.Abs(audio.SPL(buf)-55) > 1 {
		t.Errorf("jammer tone at %.1f dB, want 55", audio.SPL(buf))
	}
	// Empty jammer renders silence.
	empty := &Jammer{}
	silent, err := empty.Render(100, 44100, rng)
	if err != nil || audio.SPL(silent) > -100 && silent.Samples[0] != 0 {
		t.Errorf("empty jammer not silent: %v", err)
	}
}

func TestNLOSAttenuatesDirectPath(t *testing.T) {
	measure := func(nlos bool, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		link, err := NewLink(44100, 0.3, PhoneSpeaker(), WatchMic(), nil, rng)
		if err != nil {
			t.Fatalf("NewLink: %v", err)
		}
		if nlos {
			// Weak echoes isolate the direct-path loss (a steady tone
			// would otherwise be refilled by reflection energy).
			link.NLOS = NLOSConfig{Enabled: true, DirectLossDB: 12, EchoLossDB: 25, FarEchoLossDB: 35}
		}
		tone, err := audio.Tone(3000, 1, 8820, 44100)
		if err != nil {
			t.Fatalf("Tone: %v", err)
		}
		rec, err := link.Transmit(tone, 75)
		if err != nil {
			t.Fatalf("Transmit: %v", err)
		}
		start := link.LeadIn + DelaySamples(0.3, 44100) + 441
		seg, err := rec.Slice(start, start+4410)
		if err != nil {
			t.Fatalf("Slice: %v", err)
		}
		return audio.SPL(seg)
	}
	los := measure(false, 10)
	nlos := measure(true, 10)
	if los-nlos < 8 {
		t.Errorf("NLOS attenuated only %.1f dB", los-nlos)
	}
}

func TestMicProfileApplyExported(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	buf, err := audio.Tone(3000, 0.5, 4410, 44100)
	if err != nil {
		t.Fatalf("Tone: %v", err)
	}
	mic := MicProfile{Name: "test", ClockJitter: 1e-5, ADCBits: 16}
	if err := mic.Apply(buf, rng); err != nil {
		t.Fatalf("Apply: %v", err)
	}
}

// TestMicLowPassCachedInPlace pins the cached, in-place watch-mic
// low-pass to the per-recording design it replaced: same output bits,
// written into the caller's slice, one filter per (cutoff, rate, taps).
func TestMicLowPassCachedInPlace(t *testing.T) {
	mic := WatchMic()
	mic.ClockJitter, mic.PhaseRippleRad, mic.SelfNoiseSPL, mic.ADCBits = 0, 0, 0, 0
	rng := rand.New(rand.NewSource(17))
	for _, rate := range []int{44100, 48000} {
		for _, n := range []int{1, 31, 4096, 9001} {
			buf, err := audio.NewBuffer(rate, n)
			if err != nil {
				t.Fatal(err)
			}
			for i := range buf.Samples {
				buf.Samples[i] = rng.NormFloat64()
			}
			lp, err := dsp.LowPassFIR(mic.LowPassHz, float64(rate), mic.LowPassTaps)
			if err != nil {
				t.Fatal(err)
			}
			want := lp.Apply(buf.Samples)
			samples := buf.Samples
			if err := mic.Apply(buf, nil); err != nil {
				t.Fatal(err)
			}
			if &buf.Samples[0] != &samples[0] || len(buf.Samples) != n {
				t.Fatalf("rate %d, n %d: Apply replaced the sample slice instead of filtering in place", rate, n)
			}
			for i := range want {
				if math.Float64bits(buf.Samples[i]) != math.Float64bits(want[i]) {
					t.Fatalf("rate %d, n %d: sample %d = %v, fresh filter gives %v", rate, n, i, buf.Samples[i], want[i])
				}
			}
		}
		a, err := micLowPass(mic.LowPassHz, rate, mic.LowPassTaps)
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := micLowPass(mic.LowPassHz, rate, mic.LowPassTaps); a != b {
			t.Errorf("rate %d: micLowPass designed the filter twice", rate)
		}
		if c, _ := micLowPass(mic.LowPassHz, rate, mic.LowPassTaps+2); c == a {
			t.Errorf("rate %d: micLowPass ignored the tap count in its key", rate)
		}
	}
}

// TestMicLowPassConcurrent applies a mic whose filter is not cached yet
// from several goroutines at once; every recording must match the
// uncached design. Run under -race.
func TestMicLowPassConcurrent(t *testing.T) {
	mic := MicProfile{Name: "concurrent", LowPassHz: 6123, LowPassTaps: 41}
	const rate, n, workers = 44100, 3000, 8
	lp, err := dsp.LowPassFIR(mic.LowPassHz, rate, mic.LowPassTaps)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]float64, workers)
	rng := rand.New(rand.NewSource(23))
	for w := range inputs {
		inputs[w] = make([]float64, n)
		for i := range inputs[w] {
			inputs[w][i] = rng.NormFloat64()
		}
	}
	outs := make([]*audio.Buffer, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		outs[w] = &audio.Buffer{Rate: rate, Samples: append([]float64(nil), inputs[w]...)}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = mic.Apply(outs[w], nil)
		}(w)
	}
	wg.Wait()
	for w := range outs {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		want := lp.Apply(inputs[w])
		for i := range want {
			if math.Float64bits(outs[w].Samples[i]) != math.Float64bits(want[i]) {
				t.Fatalf("worker %d sample %d: %v, uncached filter %v", w, i, outs[w].Samples[i], want[i])
			}
		}
	}
}

// TestSincosMatchesSinCos guards applyPhaseRipple's single math.Sincos
// call per bin: it must give the bits math.Sin and math.Cos gave before,
// special cases included, or every ripple-rendered golden would move.
func TestSincosMatchesSinCos(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	phases := []float64{0, math.Copysign(0, -1), math.Pi / 4, -math.Pi / 2, 1e-310, -1e-310,
		1e9, -1e9, 1 << 29, 1e300, math.Inf(1), math.Inf(-1), math.NaN()}
	for range 100000 {
		phases = append(phases, 0.3*rng.NormFloat64(), 10*rng.NormFloat64())
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
	}
	for _, x := range phases {
		sin, cos := math.Sincos(x)
		if !same(sin, math.Sin(x)) || !same(cos, math.Cos(x)) {
			t.Fatalf("Sincos(%v) = (%v, %v), Sin/Cos = (%v, %v)", x, sin, cos, math.Sin(x), math.Cos(x))
		}
	}
}
