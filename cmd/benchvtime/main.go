// Command benchvtime is the virtual-time engine's throughput gate
// (DESIGN.md §12). It replays wearlockd's admission semantics — the
// default loadgen scenario mix round-robined over a device fleet — on
// both virtual-time engines pinned to one core:
//
//   - the serial reference walks one fleet session by session, paying
//     the full DSP cost for every unlock, exactly like the daemon does
//     in wall-clock time;
//   - the discrete-event engine runs F identical replica fleets (the
//     crowded-room regime: many phone↔watch pairs admitted through the
//     same traffic stream), where the transition memo lets one physical
//     protocol run serve every replica in the same state.
//
// The speedup is honest about its mechanism: logical sessions/sec grows
// because identical-state sessions share one computation, not because
// the DSP got faster. That is the point — capacity planning and chaos
// sweeps over crowded rooms no longer pay per-replica CPU. The gate
// holds the claim to proof: every replica session must be bit-identical
// (canonical Result fingerprints) to the serial reference, terminal
// device state included, or the run fails regardless of throughput.
//
//	benchvtime -out BENCH_vtime.json -check
//
// -check additionally enforces the ≥ -min-speedup (default 100x)
// multiple over the recorded wearlockd baseline in -baseline
// (BENCH_service.json, sessions_per_sec). The baseline must have been
// measured at this engine's GOMAXPROCS (1), or the gate fails: a daemon
// measured on more cores is not the same regime.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"wearlock/internal/benchenv"
	"wearlock/internal/core"
	"wearlock/internal/scenario/catalog"
	"wearlock/internal/service"
	"wearlock/internal/vtime"
)

type report struct {
	benchenv.Header
	Requests    int            `json:"requests"`
	Devices     int            `json:"devices"`
	Fleets      int            `json:"fleets"`
	Mix         string         `json:"mix"`
	Chaos       string         `json:"chaos,omitempty"`
	Seed        int64          `json:"seed"`
	PerFleet    int            `json:"sessions_per_fleet"`
	Sessions    int            `json:"sessions_total"`
	SerialWallS float64        `json:"serial_wall_seconds"`
	SerialRate  float64        `json:"serial_sessions_per_sec"`
	EventWallS  float64        `json:"event_wall_seconds"`
	EventRate   float64        `json:"event_sessions_per_sec"`
	SpeedupSelf float64        `json:"speedup_vs_serial"`
	Baseline    float64        `json:"baseline_sessions_per_sec"`
	Speedup     float64        `json:"speedup_vs_baseline"`
	MinSpeedup  float64        `json:"gate_min_speedup"`
	GatePass    bool           `json:"gate_pass"`
	Equivalent  bool           `json:"bit_identical_to_serial"`
	MemoHits    uint64         `json:"memo_hits"`
	MemoMisses  uint64         `json:"memo_misses"`
	Events      uint64         `json:"scheduler_events"`
	VirtualEndS float64        `json:"virtual_end_seconds"`
	Outcomes    map[string]int `json:"outcomes_per_fleet"`
	Note        string         `json:"note"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		requests   = flag.Int("n", 256, "admission requests per fleet (before pool-exhaust rejections)")
		devices    = flag.Int("devices", 64, "device pairs per fleet")
		fleets     = flag.Int("fleets", 192, "replica fleets in the event-engine run")
		seed       = flag.Int64("seed", 42, "workload seed (device streams + fault derivation)")
		mixSpec    = flag.String("mix", catalog.DefaultMixSpec(), "weighted scenario mix over registered scenario names")
		chaosSpec  = flag.String("chaos", "", "fault schedule (registered chaos name or JSON file path, empty = off)")
		baseline   = flag.String("baseline", "BENCH_service.json", "wearlockd throughput artifact to gate against")
		minSpeedup = flag.Float64("min-speedup", 100, "required sessions/sec multiple over the baseline")
		out        = flag.String("out", "", "write the report JSON to this path")
		check      = flag.Bool("check", false, "exit non-zero unless the speedup gate holds (equivalence is always fatal)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(1)

	scenarios := catalog.ServiceScenarios()
	mix, err := service.ParseMix(*mixSpec, scenarios)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchvtime: %v\n", err)
		return 1
	}
	picks := make([]vtime.Pick, *requests)
	for i := range picks {
		name := mix.Pick(uint64(i))
		picks[i] = vtime.Pick{Name: name, Scenario: scenarios[name]}
	}

	// Mirror wearlockd: the classic single-attempt protocol on clean runs,
	// the resilience ladder armed whenever a fault schedule is.
	cfg := core.DefaultConfig()
	chaos, err := catalog.ResolveChaos(*chaosSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchvtime: %v\n", err)
		return 1
	}
	if chaos != nil {
		cfg.Resilience = core.DefaultResilience()
	}

	ref := vtime.FleetWorkload(cfg, *seed, 1, *devices, picks, chaos)
	start := time.Now()
	serial, err := vtime.RunSerial(ref)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchvtime: serial engine: %v\n", err)
		return 1
	}
	serialWall := time.Since(start)

	w := vtime.FleetWorkload(cfg, *seed, *fleets, *devices, picks, chaos)
	start = time.Now()
	event, err := vtime.Run(w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchvtime: event engine: %v\n", err)
		return 1
	}
	eventWall := time.Since(start)

	perFleet := len(ref.Sessions)
	if len(w.Sessions) != perFleet**fleets {
		fmt.Fprintf(os.Stderr, "benchvtime: fleet workload not replica-balanced: %d sessions, %d per fleet\n", len(w.Sessions), perFleet)
		return 1
	}

	// Equivalence gate: every replica session bit-identical to the serial
	// reference, terminal device accounting included. A throughput number
	// without this proof is meaningless, so divergence is always fatal.
	equivalent := true
	for i, fp := range event.Fingerprints {
		if fp != serial.Fingerprints[i%perFleet] {
			fmt.Fprintf(os.Stderr, "benchvtime: FAIL fleet %d session %d diverged from serial reference\n%s\n",
				i/perFleet, i%perFleet, firstDiff(serial.Fingerprints[i%perFleet], fp))
			equivalent = false
			break
		}
	}
	for k, got := range event.DeviceEnds {
		want, ok := serial.DeviceEnds[vtime.DeviceKey{Fleet: 0, Stream: k.Stream}]
		if !ok || got != want {
			fmt.Fprintf(os.Stderr, "benchvtime: FAIL device %+v terminal state %+v, serial reference %+v\n", k, got, want)
			equivalent = false
		}
	}
	if serial.VirtualEnd != event.VirtualEnd {
		fmt.Fprintf(os.Stderr, "benchvtime: FAIL virtual end: serial %v, event %v\n", serial.VirtualEnd, event.VirtualEnd)
		equivalent = false
	}

	outcomes := make(map[string]int)
	for _, r := range serial.Results {
		outcomes[r.Outcome.String()]++
	}

	base, baseErr := readBaseline(*baseline, runtime.GOMAXPROCS(0))
	rep := report{
		Header:      benchenv.Capture(),
		Requests:    *requests,
		Devices:     *devices,
		Fleets:      *fleets,
		Mix:         *mixSpec,
		Chaos:       *chaosSpec,
		Seed:        *seed,
		PerFleet:    perFleet,
		Sessions:    len(w.Sessions),
		SerialWallS: serialWall.Seconds(),
		SerialRate:  float64(perFleet) / serialWall.Seconds(),
		EventWallS:  eventWall.Seconds(),
		EventRate:   float64(len(w.Sessions)) / eventWall.Seconds(),
		SpeedupSelf: (float64(len(w.Sessions)) / eventWall.Seconds()) / (float64(perFleet) / serialWall.Seconds()),
		Baseline:    base,
		MinSpeedup:  *minSpeedup,
		Equivalent:  equivalent,
		MemoHits:    event.MemoHits,
		MemoMisses:  event.MemoMisses,
		Events:      event.Events,
		VirtualEndS: event.VirtualEnd.Seconds(),
		Outcomes:    outcomes,
		Note: "Logical unlock sessions/sec at GOMAXPROCS=1. serial = per-session protocol+DSP execution (the wearlockd regime); " +
			"event = discrete-event engine over F identical replica fleets sharing memoized transitions, so one physical run " +
			"serves every replica in the same device state. The speedup is amortization across identical replicas, not faster DSP; " +
			"bit_identical_to_serial certifies every replica's Result fingerprint and terminal HOTP/draw state match the serial walk.",
	}
	if baseErr != nil {
		fmt.Fprintf(os.Stderr, "benchvtime: baseline: %v\n", baseErr)
	} else {
		rep.Speedup = rep.EventRate / base
	}
	rep.GatePass = equivalent && baseErr == nil && rep.Speedup >= *minSpeedup

	fmt.Printf("serial: %d sessions in %.2fs = %.1f/s\n", perFleet, rep.SerialWallS, rep.SerialRate)
	fmt.Printf("event:  %d sessions in %.2fs = %.1f/s (%.1fx serial, memo %d hits / %d misses, %d events)\n",
		rep.Sessions, rep.EventWallS, rep.EventRate, rep.SpeedupSelf, rep.MemoHits, rep.MemoMisses, rep.Events)
	if baseErr == nil {
		fmt.Printf("baseline: %.2f sessions/s → speedup %.1fx (gate ≥ %.0fx)\n", base, rep.Speedup, *minSpeedup)
	}
	printOutcomes(outcomes)

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchvtime: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchvtime: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if !equivalent {
		return 1
	}
	if *check && !rep.GatePass {
		if baseErr != nil {
			fmt.Fprintf(os.Stderr, "benchvtime: FAIL gate needs a usable baseline: %v\n", baseErr)
		} else {
			fmt.Fprintf(os.Stderr, "benchvtime: FAIL %.1fx < required %.0fx over baseline %.2f sessions/s\n", rep.Speedup, *minSpeedup, base)
		}
		return 1
	}
	return 0
}

// readBaseline pulls sessions_per_sec out of a loadgen artifact, which
// must have been measured at gomaxprocs.
func readBaseline(path string, gomaxprocs int) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var v struct {
		Throughput float64 `json:"sessions_per_sec"`
		GOMAXPROCS int     `json:"gomaxprocs"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if v.Throughput <= 0 {
		return 0, fmt.Errorf("%s: sessions_per_sec %v not positive", path, v.Throughput)
	}
	if v.GOMAXPROCS != gomaxprocs {
		return 0, fmt.Errorf("%s: measured at gomaxprocs %d, this engine runs at %d; regenerate it with GOMAXPROCS=%d",
			path, v.GOMAXPROCS, gomaxprocs, gomaxprocs)
	}
	return v.Throughput, nil
}

// firstDiff renders the first point where two fingerprints part ways.
func firstDiff(want, got string) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	i := 0
	for i < n && want[i] == got[i] {
		i++
	}
	lo := i - 40
	if lo < 0 {
		lo = 0
	}
	hiW, hiG := i+80, i+80
	if hiW > len(want) {
		hiW = len(want)
	}
	if hiG > len(got) {
		hiG = len(got)
	}
	return fmt.Sprintf("  serial …%s…\n  event  …%s…", want[lo:hiW], got[lo:hiG])
}

func printOutcomes(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Print("outcomes/fleet:")
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, m[k])
	}
	fmt.Println()
}
