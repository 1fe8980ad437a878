// Command benchfailover measures and gates the warm-standby failover
// promise: a primary can die mid-load and the cluster keeps every
// acknowledged session, never regresses a HOTP counter, never accepts
// a replay, and restores service in a small fraction of the time a
// cold restart of the same store would take.
//
// Kill cycles: -cycles seeded rounds each boot a primary + attached
// warm standby behind a real gateway over loopback HTTP, acknowledge
// unlock traffic through the gateway (synchronous replication: the ack
// implies the follower's disk), kill the primary process state and its
// port, and drive the gateway's heartbeat loop on a manual clock until
// it fences the epoch and promotes the standby. The shared safety oracle
// (internal/rig) then judges every cycle twice: the promoted standby
// against the primary's state at the kill (every device present, same
// pairing key, counters no lower), and the final state against the
// pre-load state and every acked unlock (each verifier counter advanced
// at least once per acked unlock, measured from the pre-load counter).
//
// Downtime ratio: one heavy round pads the primary's WAL with enough
// records that startup replay is expensive, measures that cold-restart
// replay window directly (boot wall time on the same store), then
// measures client-observed unavailability across a promotion under
// continuous load — the gap between the kill and the first subsequent
// acknowledged unlock. The -check gate requires the promotion gap to be
// under 10% of the cold-restart window: failover must beat restart by
// an order of magnitude, or the standby is not paying for itself.
//
// Usage:
//
//	benchfailover [-cycles 25] [-padding 500000] [-out BENCH_failover.json] [-check]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"wearlock/internal/benchenv"
	"wearlock/internal/cluster"
	"wearlock/internal/rig"
	"wearlock/internal/service"
	"wearlock/internal/store"
)

// benchConfig is the recorded drill parameterization.
type benchConfig struct {
	Cycles  int   `json:"cycles"`
	Devices int   `json:"devices"`
	Workers int   `json:"workers"`
	Seed    int64 `json:"seed"`
	Padding int   `json:"padding_records"`
}

// cycleResult is one kill cycle's outcome and invariant counters.
type cycleResult struct {
	Cycle           int     `json:"cycle"`
	AckedBeforeKill int     `json:"acked_before_kill"`
	PromoteMS       float64 `json:"promote_ms"`
	rig.Verdict
	PostPromoteFailed int `json:"post_promote_failed"`
}

// downtimeResult compares promotion unavailability against the
// cold-restart replay window of the same padded store.
type downtimeResult struct {
	PaddingRecords   int     `json:"padding_records"`
	ColdReplayMS     float64 `json:"cold_replay_ms"`
	UnavailabilityMS float64 `json:"promotion_unavailability_ms"`
	Ratio            float64 `json:"unavailability_over_replay"`
	AckedBeforeKill  int     `json:"acked_before_kill"`
	rig.Verdict
}

// gates records the pass/fail thresholds alongside the measurements.
type gates struct {
	RatioMax float64  `json:"ratio_max"`
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
}

type report struct {
	benchenv.Header
	Config   benchConfig    `json:"config"`
	Cycles   []cycleResult  `json:"kill_cycles"`
	Downtime downtimeResult `json:"downtime"`
	Gates    gates          `json:"gates"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		cycles  = flag.Int("cycles", 25, "seeded kill/failover cycles")
		padding = flag.Int("padding", 500_000, "WAL padding records for the downtime cycle")
		seed    = flag.Int64("seed", 42, "base fleet seed (each cycle derives its own)")
		out     = flag.String("out", "", "write the report JSON to this path")
		check   = flag.Bool("check", false, "exit nonzero if an invariant or the downtime gate fails")
	)
	flag.Parse()

	cfg := benchConfig{
		Cycles:  *cycles,
		Devices: 8,
		Workers: 2,
		Seed:    *seed,
		Padding: *padding,
	}
	rep := report{Header: benchenv.Capture(), Config: cfg}

	for i := 0; i < cfg.Cycles; i++ {
		cr, err := runCycle(i, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfailover: cycle %d: %v\n", i, err)
			return 1
		}
		rep.Cycles = append(rep.Cycles, cr)
	}
	var acked, postFail int
	var safety rig.Verdict
	for _, cr := range rep.Cycles {
		acked += cr.AckedBeforeKill
		postFail += cr.PostPromoteFailed
		safety.Add(cr.Verdict)
	}
	fmt.Printf("%d kill cycles: %d acked sessions, %d lost devices, %d key changes, "+
		"%d counter regressions, %d lost-or-replayed, %d post-promote failures\n",
		len(rep.Cycles), acked, safety.LostDevices, safety.KeyChanges,
		safety.CounterRegressions, safety.LostOrReplayed, postFail)

	dt, err := runDowntime(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchfailover: downtime cycle: %v\n", err)
		return 1
	}
	rep.Downtime = dt
	fmt.Printf("downtime: cold replay of %d padded records %.0f ms; promotion unavailability %.1f ms (%.1f%% of replay)\n",
		dt.PaddingRecords, dt.ColdReplayMS, dt.UnavailabilityMS, 100*dt.Ratio)

	g := gates{RatioMax: 0.10, Pass: true}
	fail := func(format string, a ...any) {
		g.Pass = false
		g.Failures = append(g.Failures, fmt.Sprintf(format, a...))
	}
	if acked == 0 {
		fail("no sessions acknowledged before any kill — the drill exercised nothing")
	}
	for _, p := range safety.Problems() {
		fail("across failovers: %s", p)
	}
	if postFail > 0 {
		fail("%d post-promotion unlocks failed on the promoted standby", postFail)
	}
	for _, p := range dt.Problems() {
		fail("downtime cycle: %s", p)
	}
	if dt.Ratio >= g.RatioMax {
		fail("promotion unavailability %.1f ms is %.1f%% of the %.0f ms cold-replay window (gate < %.0f%%)",
			dt.UnavailabilityMS, 100*dt.Ratio, dt.ColdReplayMS, 100*g.RatioMax)
	}
	rep.Gates = g

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfailover: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchfailover: %v\n", err)
			return 1
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if !g.Pass {
		for _, f := range g.Failures {
			fmt.Fprintf(os.Stderr, "benchfailover: GATE FAIL: %s\n", f)
		}
		if *check {
			return 1
		}
	} else {
		fmt.Println("all gates pass")
	}
	return 0
}

// pairConfigs builds the primary's and the standby's configs: full
// fleet, shared seed, durable store without fsync (the drill exercises
// replication and replay, not disk latency).
func pairConfigs(cfg benchConfig, seed int64, stateDir string) (primary, standby service.Config) {
	sc := service.DefaultConfig()
	sc.Devices = cfg.Devices
	sc.Workers = cfg.Workers
	sc.QueueDepth = 16
	sc.Seed = seed
	sc.ShardID = "s0"
	sc.NoFsync = true
	primary, standby = sc, sc
	primary.StateDir = filepath.Join(stateDir, "primary")
	standby.StateDir = filepath.Join(stateDir, "standby")
	standby.Follow = true
	return primary, standby
}

// gatewayTemplate arms a 2-miss failover threshold.
func gatewayTemplate() cluster.GatewayConfig {
	return cluster.GatewayConfig{HeartbeatMisses: 2, Client: &http.Client{Timeout: 5 * time.Second}}
}

// unlockUntilAcked retries a device until one session is acknowledged
// with an unlock; non-unlocking completions and transient 503s are
// retried, anything else after the attempt budget is an error.
func unlockUntilAcked(client *http.Client, base string, dev int) error {
	var lastStatus int
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		view, status, _, err := rig.Unlock(client, base, rig.Pin("", dev))
		if err == nil && status == http.StatusOK && view.Unlocked {
			return nil
		}
		lastStatus, lastErr = status, err
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("no acked unlock in 20 attempts (last status %d, err %v)", lastStatus, lastErr)
}

// runCycle is one seeded kill/failover round.
func runCycle(i int, cfg benchConfig) (cycleResult, error) {
	stateDir, err := os.MkdirTemp("", "benchfailover-*")
	if err != nil {
		return cycleResult{}, err
	}
	defer os.RemoveAll(stateDir)

	primary, standby := pairConfigs(cfg, cfg.Seed+int64(i)*1009, stateDir)
	r, err := rig.Pair(primary, standby, gatewayTemplate())
	if err != nil {
		return cycleResult{}, err
	}
	defer r.Close()
	preLoad, _ := r.Daemons[0].StoreState()

	cr := cycleResult{Cycle: i}
	client := &http.Client{Timeout: 30 * time.Second}
	acks := map[int]int{}

	// Acked traffic through the gateway. Synchronous replication: each
	// unlocked 200 below means the session is already on the standby's
	// disk. A session can complete without unlocking (the acoustic sim
	// rolls per-session noise), so retry the device until one lands.
	for round := 0; round < 2; round++ {
		for dev := 0; dev < cfg.Devices; dev++ {
			if err := unlockUntilAcked(client, r.URL, dev); err != nil {
				return cr, fmt.Errorf("pre-kill device %d: %w", dev, err)
			}
			acks[dev]++
			cr.AckedBeforeKill++
		}
	}
	atKill, ok := r.Daemons[0].StoreState()
	if !ok {
		return cr, fmt.Errorf("primary has no store state")
	}

	r.KillPrimary()
	tKill := time.Now()
	// Two missed beats cross the threshold; the fence + promote +
	// re-point runs inside the second.
	r.Heartbeat()
	r.Heartbeat()
	cr.PromoteMS = float64(time.Since(tKill)) / float64(time.Millisecond)
	if role := r.Standby.ReplicaStatus().Role; role != "promoted" {
		return cr, fmt.Errorf("follower role %q after heartbeat loss, want promoted", role)
	}
	if top := r.Gateway.Topology(); top.Shards[0].BaseURL != r.Standby.URL {
		return cr, fmt.Errorf("gateway routes s0 to %s, want promoted standby", top.Shards[0].BaseURL)
	}
	promoted, ok := r.Standby.StoreState()
	if !ok {
		return cr, fmt.Errorf("promoted follower has no store state")
	}
	cr.Verdict = rig.Oracle(atKill, nil, promoted)

	// The same gateway URL serves again, against the promoted standby.
	for dev := 0; dev < cfg.Devices; dev++ {
		if err := unlockUntilAcked(client, r.URL, dev); err != nil {
			cr.PostPromoteFailed++
			continue
		}
		acks[dev]++
	}
	final, _ := r.Standby.StoreState()
	cr.Verdict.Add(rig.Oracle(preLoad, acks, final))
	return cr, nil
}

// padStore writes padding records into a fresh store so that a cold
// restart has a real replay bill to pay.
func padStore(dir string, records int) error {
	st, err := store.Open(store.Options{Dir: dir, NoFsync: true, SegmentBytes: 1 << 30})
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	workers := 32
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		n := records / workers
		if w == 0 {
			n += records % workers
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				if err := st.CommitNote("failover-padding"); err != nil {
					errCh <- err
					return
				}
			}
		}(n)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// runDowntime measures client-observed promotion unavailability against
// the cold-restart replay window of the same padded store.
func runDowntime(cfg benchConfig) (downtimeResult, error) {
	stateDir, err := os.MkdirTemp("", "benchfailover-heavy-*")
	if err != nil {
		return downtimeResult{}, err
	}
	defer os.RemoveAll(stateDir)

	dt := downtimeResult{PaddingRecords: cfg.Padding}
	primary, standby := pairConfigs(cfg, cfg.Seed, stateDir)
	if err := padStore(primary.StateDir, cfg.Padding); err != nil {
		return dt, fmt.Errorf("padding: %w", err)
	}

	// Cold-restart window: boot the daemon alone on the padded store and
	// time it to ready, then release the store cleanly (Seal keeps the
	// WAL; no compaction) so the pair's primary replays the very same
	// bytes. SnapshotEvery is pushed out of reach so the padding stays in
	// the WAL — this primary pays the same replay bill again if it ever
	// cold-restarts, which is exactly the scenario the warm standby
	// exists to beat.
	primary.SnapshotEvery = 1 << 30
	primary.WALSegmentBytes = 1 << 30
	tBoot := time.Now()
	probe, err := rig.Single(primary)
	if err != nil {
		return dt, fmt.Errorf("padded primary recovery: %w", err)
	}
	dt.ColdReplayMS = float64(time.Since(tBoot)) / float64(time.Millisecond)
	probe.Close()

	r, err := rig.Pair(primary, standby, gatewayTemplate())
	if err != nil {
		return dt, err
	}
	defer r.Close()
	stopHeartbeats := r.StartHeartbeats(3 * time.Millisecond)

	client := &http.Client{Timeout: 10 * time.Second}
	// Warm the path with one acked round per device.
	for dev := 0; dev < cfg.Devices; dev++ {
		if err := unlockUntilAcked(client, r.URL, dev); err != nil {
			return dt, fmt.Errorf("warmup device %d: %w", dev, err)
		}
		dt.AckedBeforeKill++
	}
	atKill, ok := r.Daemons[0].StoreState()
	if !ok {
		return dt, fmt.Errorf("primary has no store state")
	}

	r.KillPrimary()
	tKill := time.Now()
	// Hammer the gateway until service returns: the first acknowledged
	// unlock after the kill closes the unavailability window.
	for dev := 0; ; dev++ {
		view, status, _, err := rig.Unlock(client, r.URL, rig.Pin("", dev%cfg.Devices))
		if err == nil && status == http.StatusOK && view.Unlocked {
			dt.UnavailabilityMS = float64(time.Since(tKill)) / float64(time.Millisecond)
			break
		}
		if time.Since(tKill) > 60*time.Second {
			return dt, fmt.Errorf("no successful unlock within 60s of the kill")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stopHeartbeats()

	if role := r.Standby.ReplicaStatus().Role; role != "promoted" {
		return dt, fmt.Errorf("follower role %q after downtime cycle, want promoted", role)
	}
	after, ok := r.Standby.StoreState()
	if !ok {
		return dt, fmt.Errorf("promoted follower has no store state")
	}
	dt.Verdict = rig.Oracle(atKill, nil, after)
	if dt.ColdReplayMS > 0 {
		dt.Ratio = dt.UnavailabilityMS / dt.ColdReplayMS
	}
	return dt, nil
}
