package dsp

import (
	"fmt"
	"math"
	"sync"
)

// CorrelationTemplate is a correlation template with its FFT spectra
// cached per transform size. The template never changes after
// construction and each spectrum is computed once and then only read, so
// one CorrelationTemplate is safe for concurrent use and may be shared
// process-wide: the modem keeps one per preamble, so a fresh session's
// demodulator finds the preamble already transformed.
type CorrelationTemplate struct {
	template []float64
	tEnergy  float64

	// specs maps an FFT size to the template's spectrum at that size
	// (map[int][]complex128). Preamble searches see a few distinct sizes,
	// each a power of two, so it holds at most one entry per size class.
	specs sync.Map
}

// NewCorrelationTemplate copies template, so the caller may reuse its
// slice.
func NewCorrelationTemplate(template []float64) (*CorrelationTemplate, error) {
	if len(template) == 0 {
		return nil, fmt.Errorf("dsp: empty correlation template")
	}
	t := &CorrelationTemplate{template: append([]float64(nil), template...)}
	for _, v := range t.template {
		t.tEnergy += v * v
	}
	return t, nil
}

// spectrum returns the n-point FFT of the template, computing it on first
// use at this size. Two goroutines that miss together both compute the
// same bits; the first stored copy wins and the other is dropped.
func (t *CorrelationTemplate) spectrum(n int, rp *RealPlan) ([]complex128, error) {
	if spec, ok := t.specs.Load(n); ok {
		return spec.([]complex128), nil
	}
	pad := make([]float64, n)
	copy(pad, t.template)
	spec := make([]complex128, n)
	if err := rp.Forward(spec, pad); err != nil {
		return nil, err
	}
	cached, _ := t.specs.LoadOrStore(n, spec)
	return cached.([]complex128), nil
}

// Correlator performs repeated cross-correlations against a fixed template
// without per-call allocation. The template's FFT comes from its
// CorrelationTemplate, computed once per transform size, which is the
// "pre-transform the preamble once" optimization the detector hot path
// relies on: per frame, only the signal side is transformed.
//
// Results are bit-identical to CrossCorrelate / NormalizedCrossCorrelate:
// the same direct-vs-FFT threshold, the same transform order, and the same
// normalization arithmetic.
//
// The template spectra may be shared with other Correlators and are only
// read. The signal scratch belongs to this instance, so a Correlator is
// NOT safe for concurrent use; give each session (or goroutine) its own.
type Correlator struct {
	tmpl *CorrelationTemplate

	sig    []complex128 // signal spectrum scratch, grown to the largest size seen
	padded []float64    // zero-padded real signal scratch
}

// NewCorrelator builds a reusable correlator for the given template with
// a private CorrelationTemplate. The template is copied, so the caller
// may reuse its slice.
func NewCorrelator(template []float64) (*Correlator, error) {
	t, err := NewCorrelationTemplate(template)
	if err != nil {
		return nil, err
	}
	return t.NewCorrelator(), nil
}

// NewCorrelator returns a Correlator with its own scratch that shares t's
// spectra.
func (t *CorrelationTemplate) NewCorrelator() *Correlator {
	return &Correlator{tmpl: t}
}

// TemplateLen reports the template length.
func (c *Correlator) TemplateLen() int { return len(c.tmpl.template) }

// OutLen reports the correlation output length for a signal of the given
// length: sigLen - len(template) + 1.
func (c *Correlator) OutLen(sigLen int) int { return sigLen - len(c.tmpl.template) + 1 }

// CrossCorrelate writes the sliding cross-correlation of signal with the
// template into dst, which must have length OutLen(len(signal)). After the
// first call at a given transform size, no allocations occur.
func (c *Correlator) CrossCorrelate(dst, signal []float64) error {
	if len(signal) < len(c.tmpl.template) {
		return fmt.Errorf("dsp: signal length %d shorter than template %d", len(signal), len(c.tmpl.template))
	}
	if want := c.OutLen(len(signal)); len(dst) != want {
		return fmt.Errorf("dsp: correlation dst length %d, want %d", len(dst), want)
	}
	const directThreshold = 4096 // mirror CrossCorrelate's crossover
	if len(c.tmpl.template) <= 64 || len(signal)*len(c.tmpl.template) <= directThreshold {
		for i := range dst {
			var sum float64
			window := signal[i : i+len(c.tmpl.template)]
			for j, t := range c.tmpl.template {
				sum += window[j] * t
			}
			dst[i] = sum
		}
		return nil
	}
	return c.correlateFFT(dst, signal)
}

func (c *Correlator) correlateFFT(dst, signal []float64) error {
	n := NextPow2(len(signal) + len(c.tmpl.template))
	rp, err := RealPlanFor(n)
	if err != nil {
		return err
	}
	spec, err := c.tmpl.spectrum(n, rp)
	if err != nil {
		return err
	}
	if cap(c.sig) < n {
		c.sig = make([]complex128, n)
	}
	if cap(c.padded) < n {
		c.padded = make([]float64, n)
	}
	a := c.sig[:n]
	pad := c.padded[:n]
	copy(pad, signal)
	for i := len(signal); i < n; i++ {
		pad[i] = 0
	}
	if err := rp.Forward(a, pad); err != nil {
		return err
	}
	for i := range a {
		a[i] *= complex(real(spec[i]), -imag(spec[i])) // conj(B): correlation theorem
	}
	if err := rp.p.Inverse(a, a); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = real(a[i])
	}
	return nil
}

// Normalized writes the normalized cross-correlation score at every lag
// into dst (length OutLen(len(signal))), dividing the raw correlation by
// the template norm times the local window norm exactly as
// NormalizedCrossCorrelate does.
func (c *Correlator) Normalized(dst, signal []float64) error {
	tNorm := math.Sqrt(c.tmpl.tEnergy)
	if tNorm == 0 {
		return fmt.Errorf("dsp: correlation template has zero energy")
	}
	if err := c.CrossCorrelate(dst, signal); err != nil {
		return err
	}
	var wEnergy float64
	for _, v := range signal[:len(c.tmpl.template)] {
		wEnergy += v * v
	}
	const epsilon = 1e-12
	for i := range dst {
		denom := tNorm * math.Sqrt(math.Max(wEnergy, 0))
		if denom > epsilon {
			dst[i] = dst[i] / denom
		} else {
			dst[i] = 0
		}
		if i+len(c.tmpl.template) < len(signal) {
			leaving := signal[i]
			entering := signal[i+len(c.tmpl.template)]
			wEnergy += entering*entering - leaving*leaving
		}
	}
	return nil
}

// CrossCorrelateInto is the scratchless-caller variant of CrossCorrelate:
// it writes the sliding correlation into dst
// (length len(signal)-len(template)+1) using pooled scratch, allocating
// nothing in steady state. Results are bit-identical to CrossCorrelate.
func CrossCorrelateInto(dst, signal, template []float64) error {
	if len(template) == 0 {
		return fmt.Errorf("dsp: empty correlation template")
	}
	if len(signal) < len(template) {
		return fmt.Errorf("dsp: signal length %d shorter than template %d", len(signal), len(template))
	}
	if want := len(signal) - len(template) + 1; len(dst) != want {
		return fmt.Errorf("dsp: correlation dst length %d, want %d", len(dst), want)
	}
	const directThreshold = 4096
	if len(template) <= 64 || len(signal)*len(template) <= directThreshold {
		for i := range dst {
			var sum float64
			window := signal[i : i+len(template)]
			for j, t := range template {
				sum += window[j] * t
			}
			dst[i] = sum
		}
		return nil
	}
	n := NextPow2(len(signal) + len(template))
	p, err := planFor(n)
	if err != nil {
		return err
	}
	a := GetComplex(n)
	defer PutComplex(a)
	b := GetComplex(n)
	defer PutComplex(b)
	for i, v := range signal {
		a[i] = complex(v, 0)
	}
	for i, v := range template {
		b[i] = complex(v, 0)
	}
	if err := p.Forward(a, a); err != nil {
		return err
	}
	if err := p.Forward(b, b); err != nil {
		return err
	}
	for i := range a {
		a[i] *= complex(real(b[i]), -imag(b[i]))
	}
	if err := p.Inverse(a, a); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = real(a[i])
	}
	return nil
}
