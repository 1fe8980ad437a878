package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests hold the
// output to.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkSpec
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEveryWorkloadEmitsEveryMetric runs each workload for the shortest
// time, untraced and traced, and holds the last output line to the
// metric lists of BENCHMARK.json.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkSpec(t)
	for _, w := range b.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": b.EndToEnd, "1": b.PerLayer} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace, "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var got summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatal(err)
				}
				if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
					t.Fatalf("summary %+v", got)
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(got.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := got.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case v.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, v.Unit, m.Unit)
					case trace == "0" && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v.Value)
					}
				}
			})
		}
	}
}

// TestFailedRequestLandsInSuccessFrac sends requests the daemon must
// refuse and checks they count as attempted and failed.
func TestFailedRequestLandsInSuccessFrac(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	w := sp.Workloads["stack-mix"]
	w.Mix = map[string]int{"out-of-range": 1, "no-such-scenario": 1}
	r, err := runStack(w, 5, 0.5, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.problems) != 0 {
		t.Fatalf("checks failed: %v", r.problems)
	}
	if r.failed == 0 || r.failed == r.attempted {
		t.Fatalf("%d of %d failed, want some but not all", r.failed, r.attempted)
	}
	want := 1 - float64(r.failed)/float64(r.attempted)
	if got := r.e2e["success_frac"]; got != want || got >= 1 {
		t.Fatalf("success_frac %v, want %v", got, want)
	}
}

// TestCoreMixRepeatsForASeed checks the outcome ratios and the simulated
// delay do not depend on how long the run is.
func TestCoreMixRepeatsForASeed(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	w := sp.Workloads["core-mix"]
	w.RoundBlocks = 1
	var runs []*runResult
	for _, seconds := range []float64{0.01, 1.5} {
		r, err := runCoreMix(w, 11, seconds, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(r.problems) != 0 {
			t.Fatalf("checks failed: %v", r.problems)
		}
		runs = append(runs, r)
	}
	if runs[0].attempted == runs[1].attempted {
		t.Fatalf("both runs made %d sessions; the longer one should repeat the round", runs[0].attempted)
	}
	for _, m := range []string{"intended_outcome_frac", "unlock_delay_mean_ms"} {
		if a, b := runs[0].e2e[m], runs[1].e2e[m]; a != b {
			t.Errorf("%s: %v then %v", m, a, b)
		}
	}
}

func TestMixSeqDealsExactBlocks(t *testing.T) {
	mix := map[string]int{"a": 3, "b": 1}
	seq := newMixSeq(mix, 2, 1)
	counts := map[string]int{}
	for i := 0; i < 3*len(seq.block); i++ {
		counts[seq.at(i)]++
	}
	if counts["a"] != 18 || counts["b"] != 6 {
		t.Fatalf("counts %v over three blocks of %v", counts, mix)
	}
	if other := newMixSeq(mix, 2, 1); other.at(5) != seq.at(5) {
		t.Fatal("same seed dealt a different order")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int64) int64 { return ms * 1e6 }
	tr.spans = []span{
		{ID: 1, Name: "parent", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Name: "child", Start: at(2), End: at(5)},
		{ID: 3, Parent: 1, Name: "child", Start: at(4), End: at(7)},
		{ID: 4, Parent: 1, Name: "child", Start: at(9), End: at(12)},
	}
	got := tr.selfTimes()
	if p := got["parent"]; p.TotalMS != 10 || p.SelfMS != 4 {
		t.Errorf("parent %+v, want total 10 self 4", p)
	}
	if c := got["child"]; c.Count != 3 || c.SelfMS != 9 {
		t.Errorf("child %+v, want 3 spans, self 9", c)
	}
}

func TestLeastStolenKeepsTheQuieterHalf(t *testing.T) {
	got := leastStolen([]float64{0.3, 0, 0.1, 0.2, 0})
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kept %v, want %v", got, want)
		}
	}
}
