// Command perfbench is the repository's benchmark: it runs one named
// workload against the real packages in process, checks the outputs and
// prints its metrics as the last line of standard output.
//
//	perfbench --workload core-mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
// the workload twice for half the time each, untraced and then traced,
// and prints the per-layer metrics of the traced pass plus the tracing
// overhead (traced minus untraced) of every end-to-end metric. Spans are recorded only in this
// package, around calls into the layers; the program itself is not
// instrumented. A full result, with the run header and, when traced, every
// span, is written under .bench_build/results/.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// spec is workloads.json: the fixed mixes, rates and caller counts. Its
// layer_map, which names the end-to-end metric each per-layer metric
// should move, is for readers and is not parsed.
type spec struct {
	HeldOutSeed int64                   `json:"held_out_seed"`
	Workloads   map[string]workloadSpec `json:"workloads"`
	Refused     []string                `json:"refused_scenarios"`
}

type workloadSpec struct {
	Mix           map[string]int `json:"mix"`
	Callers       int            `json:"callers"`
	Fleet         int            `json:"fleet"`
	RoundBlocks   int            `json:"round_blocks"`
	OpenRatePerS  float64        `json:"open_rate_per_s"`
	OpenShare     float64        `json:"open_share"`
	refusedByName map[string]bool
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(workloadsJSON, &s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	refused := map[string]bool{}
	for _, name := range s.Refused {
		refused[name] = true
	}
	for name, w := range s.Workloads {
		if len(w.Mix) == 0 || w.Callers < 1 {
			return nil, fmt.Errorf("workloads.json: workload %s needs a mix and at least one caller", name)
		}
		w.refusedByName = refused
		s.Workloads[name] = w
	}
	return &s, nil
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sessions_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"success_frac", "ratio"},
	{"intended_outcome_frac", "ratio"},
	{"unlock_delay_mean_ms", "ms"},
	{"alloc_mb_per_session", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"acoustic.transmit_ms", "ms"},
	{"acoustic.transmit_calls", "count"},
	{"acoustic.share", "ratio"},
	{"acoustic.alloc_mb", "MB"},
	{"modem.tx_us", "us"},
	{"modem.rx_ms", "ms"},
	{"modem.new_demodulator_us", "us"},
	{"core.self_ms", "ms"},
	{"core.alloc_mb", "MB"},
	{"core.mallocs", "count"},
	{"core.unlock_frac", "ratio"},
	{"service.wall_ms", "ms"},
	{"service.queue_depth_max", "count"},
	{"service.rejected", "count"},
	{"service.non_commit_ms", "ms"},
	{"store.commit_ms", "ms"},
	{"store.batch_size", "count"},
	{"store.records_per_session", "count"},
	{"store.fsyncs_per_session", "count"},
	{"replica.applied_batches_per_session", "count"},
	{"replica.detaches", "count"},
	{"cluster.hop_ms", "ms"},
	{"cluster.shard_errors", "count"},
	{"cluster.reroutes", "count"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.conn_wait_p99_ms", "ms"},
	{"bench.latency_p99_ms", "ms"},
	{"bench.latency_samples", "count"},
}

// overheadPrefix names the traced-minus-untraced metrics.
const overheadPrefix = "overhead."

func init() {
	for _, m := range endToEnd {
		perLayer = append(perLayer, metricDef{overheadPrefix + m.name, m.unit})
	}
}

// runResult is what one pass of a workload measured.
type runResult struct {
	attempted, failed int
	problems          []string // failed output checks
	e2e               map[string]float64
	layers            map[string]float64
	p99               float64 // untraced tail, for bench.latency_p99_ms
	samples           int
	steal             stealReport
	trace             *tracer
}

// stealReport records the host steal share of each timed interval and
// which intervals the medians kept.
type stealReport struct {
	Intervals []float64 `json:"intervals"`
	Kept      []int     `json:"kept"`
}

func (r *runResult) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runFunc runs one pass of a workload for the given measuring time.
type runFunc func(w workloadSpec, seed int64, seconds float64, tr *tracer, scratch string) (*runResult, error)

var workloadFuncs = map[string]runFunc{
	"core-mix":  runCoreMix,
	"stack-mix": runStack,
}

// header is the common run header of every result the benchmark writes.
type header struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	HeldOutSeed int64   `json:"held_out_seed"`
	Seconds     float64 `json:"seconds"`
	Trace       int     `json:"trace"`
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	Date        string  `json:"date"`
	FlushPolicy string  `json:"flush_policy"`
}

const flushPolicy = "stack-mix: fsync on every group commit (store defaults: max batch 256, max delay 2ms), synchronous replication (max lag 0) to a durable fsyncing standby; core-mix: no storage"

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: core-mix or stack-mix")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "measuring time of one pass")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced pass and the tracing overhead")
	outDir := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result files and scratch state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, ok := sp.Workloads[*workload]
	fn := workloadFuncs[*workload]
	if !ok || fn == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %v)\n", *workload, workloadNames(sp))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	hdr := header{
		Workload: *workload, Seed: *seed, HeldOutSeed: sp.HeldOutSeed, Seconds: *seconds, Trace: *trace,
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Date: time.Now().UTC().Format(time.RFC3339), FlushPolicy: flushPolicy,
	}
	hdrLine, _ := json.Marshal(hdr)
	fmt.Fprintf(stdout, "header %s\n", hdrLine)

	scratch := filepath.Join(*outDir, "state")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// A traced run splits its time between an untraced and a traced pass,
	// so it takes as long as an untraced run.
	pass := *seconds / float64(1+*trace)
	base, err := fn(w, *seed, pass, nil, scratch)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, out := base, summary{Metrics: map[string]metricValue{}}
	if *trace == 1 {
		res, err = fn(w, *seed, pass, newTracer(), scratch)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		res.layers["bench.latency_p99_ms"] = base.p99
		res.layers["bench.latency_samples"] = float64(base.samples)
		for _, m := range endToEnd {
			res.layers[overheadPrefix+m.name] = res.e2e[m.name] - base.e2e[m.name]
		}
		res.problems = append(base.problems, res.problems...)
		for _, m := range perLayer {
			out.Metrics[m.name] = metricValue{res.layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricValue{res.e2e[m.name], m.unit}
		}
	}
	out.Attempted, out.Failed = res.attempted, res.failed
	out.Correct = len(res.problems) == 0
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}

	if err := writeResult(*outDir, hdr, out, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, _ := json.Marshal(out)
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

func workloadNames(sp *spec) []string {
	var names []string
	for name := range sp.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// writeResult stores the header, the summary, the checks and, for a
// traced run, every span with the per-layer self times.
func writeResult(dir string, hdr header, out summary, res *runResult) error {
	doc := struct {
		Header   header               `json:"header"`
		Summary  summary              `json:"summary"`
		Problems []string             `json:"problems"`
		SelfTime map[string]layerTime `json:"self_time,omitempty"`
		Spans    []span               `json:"spans,omitempty"`
		E2E      map[string]float64   `json:"end_to_end"`
		Layers   map[string]float64   `json:"per_layer,omitempty"`
		Steal    stealReport          `json:"host_steal"`
	}{Header: hdr, Summary: out, Problems: res.problems, E2E: res.e2e, Layers: res.layers, Steal: res.steal}
	if res.trace != nil {
		doc.Spans = res.trace.spans
		doc.SelfTime = res.trace.selfTimes()
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", hdr.Workload, hdr.Seed, hdr.Trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
