package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "Test counter.")
	g := r.Gauge("test_depth", "Test gauge.")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	if c.Value() != 5 {
		t.Errorf("counter %d, want 5", c.Value())
	}
	if g.Value() != 5 {
		t.Errorf("gauge %d, want 5", g.Value())
	}
	out := r.String()
	for _, want := range []string{
		"# HELP test_total Test counter.",
		"# TYPE test_total counter",
		"test_total 5",
		"# TYPE test_depth gauge",
		"test_depth 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVecSortedExport(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("outcomes_total", "Outcomes.", "outcome")
	v.With("unlocked").Add(3)
	v.With("aborted").Inc()
	v.With("unlocked").Inc()
	if got := v.Values(); got["unlocked"] != 4 || got["aborted"] != 1 {
		t.Errorf("values %v", got)
	}
	out := r.String()
	a := strings.Index(out, `outcomes_total{outcome="aborted"} 1`)
	u := strings.Index(out, `outcomes_total{outcome="unlocked"} 4`)
	if a < 0 || u < 0 || a > u {
		t.Errorf("label values missing or unsorted:\n%s", out)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Errorf("sum %f, want 56.05", h.Sum())
	}
	out := r.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
}

// Boundary values land in the bucket whose bound equals them (le is <=).
func TestHistogramBoundaryInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b", "Boundary.", []float64{1, 2})
	h.Observe(1)
	h.Observe(2)
	out := r.String()
	if !strings.Contains(out, `b_bucket{le="1"} 1`) || !strings.Contains(out, `b_bucket{le="2"} 2`) {
		t.Errorf("boundary observations misplaced:\n%s", out)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExponentialBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(exp[i]-want[i]) > 1e-12 {
			t.Errorf("exp[%d] = %g, want %g", i, exp[i], want[i])
		}
	}
	lin := LinearBuckets(0, 0.05, 3)
	if lin[0] != 0 || lin[1] != 0.05 || lin[2] != 0.1 {
		t.Errorf("linear buckets %v", lin)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup", "")
}

// Concurrent updates must be race-free and lose no increments.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	v := r.CounterVec("v_total", "", "k")
	h := r.Histogram("h_seconds", "", []float64{1})
	g := r.Gauge("g", "")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				v.With("a").Inc()
				h.Observe(0.5)
				g.Add(1)
			}
		}(w)
	}
	wg.Wait()
	const want = workers * perWorker
	if c.Value() != want || v.With("a").Value() != want || h.Count() != want || g.Value() != want {
		t.Errorf("lost updates: counter=%d vec=%d hist=%d gauge=%d, want %d",
			c.Value(), v.With("a").Value(), h.Count(), g.Value(), want)
	}
	if math.Abs(h.Sum()-0.5*want) > 1e-6 {
		t.Errorf("histogram sum %f, want %f", h.Sum(), 0.5*float64(want))
	}
}

// TestInfoRendersConstantGauge pins the build-info idiom: constant 1,
// labels sorted by key, gauge-typed, stable across writes.
func TestInfoRendersConstantGauge(t *testing.T) {
	r := NewRegistry()
	r.Info("app_build_info", "Build metadata.", map[string]string{
		"shard_id":   "s3",
		"go_version": "go.test",
	})
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	want := `app_build_info{go_version="go.test",shard_id="s3"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing %q:\n%s", want, out)
	}
	if !strings.Contains(out, "# TYPE app_build_info gauge") {
		t.Errorf("info metric not typed as gauge:\n%s", out)
	}
	var b2 strings.Builder
	r.WritePrometheus(&b2)
	if b2.String() != out {
		t.Error("info exposition not stable across writes")
	}
}

// TestInfoNoLabels checks the degenerate no-label form.
func TestInfoNoLabels(t *testing.T) {
	r := NewRegistry()
	r.Info("bare_info", "No labels.", nil)
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "bare_info 1") {
		t.Errorf("exposition missing bare sample:\n%s", b.String())
	}
}

// TestInfoDuplicatePanics keeps Info under the registry's single-name
// invariant.
func TestInfoDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Info("dup_info", "x", nil)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Info name did not panic")
		}
	}()
	r.Info("dup_info", "x", nil)
}

// TestParseSampleRoundTrip checks that every sample line WritePrometheus
// emits parses back to the name, labels and value that produced it:
// labeled counters (with label values that need quoting), gauges, float
// gauges, histogram _bucket{le=...}/_sum/_count and info metrics.
func TestParseSampleRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain_total", "Plain.").Add(7)
	vec := r.CounterVec("outcome_total", "By outcome.", "outcome")
	tricky := []string{"unlocked", `quote"d`, `back\slash`, "comma,brace}", "new\nline", "ünï"}
	for i, v := range tricky {
		vec.With(v).Add(uint64(i + 1))
	}
	r.Gauge("depth", "Depth.").Set(-3)
	r.FloatGauge("recovery_seconds", "Recovery.").Set(0.125)
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.5, 10})
	for _, v := range []float64{0.0005, 0.25, 0.25, 99} {
		h.Observe(v)
	}
	r.Info("build_info", "Build.", map[string]string{"version": `v1 "x"`, "shard": "s0"})

	type want struct {
		name   string
		labels map[string]string
		value  float64
	}
	wants := []want{{"plain_total", nil, 7}}
	sorted := append([]string(nil), tricky...)
	sort.Strings(sorted)
	for _, v := range sorted {
		wants = append(wants, want{"outcome_total", map[string]string{"outcome": v}, float64(vec.Values()[v])})
	}
	wants = append(wants,
		want{"depth", nil, -3},
		want{"recovery_seconds", nil, 0.125},
		want{"lat_seconds_bucket", map[string]string{"le": "0.001"}, 1},
		want{"lat_seconds_bucket", map[string]string{"le": "0.5"}, 3},
		want{"lat_seconds_bucket", map[string]string{"le": "10"}, 3},
		want{"lat_seconds_bucket", map[string]string{"le": "+Inf"}, 4},
		want{"lat_seconds_sum", nil, h.Sum()},
		want{"lat_seconds_count", nil, 4},
		want{"build_info", map[string]string{"shard": "s0", "version": `v1 "x"`}, 1},
	)

	var got []Sample
	for _, line := range strings.Split(r.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, ok := ParseSample(line)
		if !ok {
			t.Errorf("emitted sample line %q does not parse", line)
			continue
		}
		got = append(got, s)
	}
	if len(got) != len(wants) {
		t.Fatalf("parsed %d samples, want %d:\n%s", len(got), len(wants), r.String())
	}
	for i, w := range wants {
		g := got[i]
		if g.Name != w.name || g.Value != w.value || len(g.Labels) != len(w.labels) {
			t.Errorf("sample %d = %+v, want %+v", i, g, w)
			continue
		}
		for k, v := range w.labels {
			if g.Labels[k] != v {
				t.Errorf("sample %d label %s = %q, want %q", i, k, g.Labels[k], v)
			}
		}
	}
}

// TestParseSampleRejects pins what is not a sample, and that a trailing
// timestamp is tolerated.
func TestParseSampleRejects(t *testing.T) {
	for _, line := range []string{
		"", "# HELP x X.", "# TYPE x counter", "bare_name", "x{", `x{a="b" 1`,
		`x{a=b} 1`, `x{a="b"c="d"} 1`, "x 1 2 3", "x one", `{a="b"} 1`,
	} {
		if s, ok := ParseSample(line); ok {
			t.Errorf("ParseSample(%q) = %+v, want rejection", line, s)
		}
	}
	s, ok := ParseSample(`x_total{a="1",b="2",} 42 1700000000000`)
	if !ok || s.Name != "x_total" || s.Value != 42 || s.Labels["a"] != "1" || s.Labels["b"] != "2" {
		t.Errorf("timestamped sample parsed as %+v, %v", s, ok)
	}
}
