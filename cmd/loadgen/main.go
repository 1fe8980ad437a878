// Command loadgen drives a wearlockd daemon with concurrent unlock
// traffic and prints a latency/outcome summary. It speaks the real HTTP
// API (synchronous POST /v1/unlock), honors 429 backpressure with
// Retry-After, and afterwards scrapes /metrics to cross-check the
// daemon's outcome counters against what the clients observed — the
// consistency bit in the report is the acceptance gate for the service's
// accounting.
//
// With -selfhost it boots an in-process daemon on a loopback port first,
// so a one-command smoke run needs no separate server:
//
//	loadgen -selfhost -n 512 -c 64 -out BENCH_service.json
//
// With -state-dir (selfhost) the daemon runs durable and the report
// grows a store-consistency gate: wearlockd_wal_records_total must
// cover every completed session, wearlockd_store_corruptions_total
// must be zero, and wearlockd_recovery_seconds must be exposed:
//
//	loadgen -selfhost -n 256 -c 16 -state-dir /tmp/wearlockd-state
//
// Against a running daemon:
//
//	loadgen -addr http://localhost:8547 -n 1000 -c 32 -rate 200 \
//	        -mix "default=4,cafe=2,samehand=1,out-of-range=1"
//
// With -virtual the same admission stream runs on the discrete-event
// virtual-time engine instead of a daemon (DESIGN.md §12): no HTTP, no
// wall-clock airtime — the report's unlock_delay percentiles are the
// bit-identical protocol timelines the daemon would have produced,
// available in a fraction of the wall time. -fleets replays the stream
// across N identical device fleets for crowded-room capacity numbers:
//
//	loadgen -virtual -n 512 -fleets 64 -chaos builtin
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wearlock/internal/benchenv"
	"wearlock/internal/cluster"
	"wearlock/internal/core"
	"wearlock/internal/fault"
	"wearlock/internal/rig"
	"wearlock/internal/scenario/catalog"
	"wearlock/internal/service"
	"wearlock/internal/sim"
	"wearlock/internal/store"
	"wearlock/internal/telemetry"
	"wearlock/internal/vtime"
)

type latencySummary struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

type record struct {
	benchenv.Header
	Requests       int             `json:"requests"`
	Concurrency    int             `json:"concurrency"`
	RatePerSec     float64         `json:"rate_per_sec"` // 0 = closed loop
	Mix            string          `json:"mix"`
	Chaos          string          `json:"chaos,omitempty"`
	Selfhost       bool            `json:"selfhost"`
	Shards         int             `json:"shards,omitempty"`
	WallSeconds    float64         `json:"wall_seconds"`
	Throughput     float64         `json:"sessions_per_sec"`
	Outcomes       map[string]int  `json:"outcomes"`
	Rejected429    int64           `json:"rejected_429"`
	Deferred503    int64           `json:"deferred_503"`
	HTTPErrors     int64           `json:"http_errors"`
	Latency        latencySummary  `json:"latency"`
	UnlockDelay    latencySummary  `json:"unlock_delay"`
	MetricsMatch   bool            `json:"metrics_match_observed"`
	MetricsDetail  string          `json:"metrics_detail,omitempty"`
	DaemonOutcomes map[string]int  `json:"daemon_outcomes"`
	Store          *storeReport    `json:"store,omitempty"`
	Failover       *failoverReport `json:"failover,omitempty"`
	Note           string          `json:"note"`
}

// virtualRecord is the -virtual report: no transport, no daemon — the
// throughput is the engine's logical session rate and unlock_delay is
// the virtual protocol timeline, bit-identical to what a serial daemon
// run would charge (see internal/vtime's equivalence suite).
type virtualRecord struct {
	benchenv.Header
	Virtual     bool           `json:"virtual"`
	Requests    int            `json:"requests"`
	Fleets      int            `json:"fleets"`
	Devices     int            `json:"devices"`
	Mix         string         `json:"mix"`
	Chaos       string         `json:"chaos,omitempty"`
	Sessions    int            `json:"sessions_total"`
	WallSeconds float64        `json:"wall_seconds"`
	Throughput  float64        `json:"sessions_per_sec"`
	VirtualEndS float64        `json:"virtual_end_seconds"`
	MemoHits    uint64         `json:"memo_hits"`
	MemoMisses  uint64         `json:"memo_misses"`
	Outcomes    map[string]int `json:"outcomes"`
	UnlockDelay latencySummary `json:"unlock_delay"`
	Note        string         `json:"note"`
}

// runVirtual replays the admission mix on the discrete-event engine:
// request i becomes admission sequence i+1 round-robined over the
// device fleet, faults derived from (seed, sequence) — the same
// contract wearlockd applies — with the resilience ladder armed
// whenever a fault schedule is, mirroring the daemon.
func runVirtual(mix *service.Mix, scenarios map[string]core.Scenario, n, devices, fleets int, seed int64, mixSpec, chaosSpec string, sch *fault.Schedule, out string) int {
	if devices <= 0 {
		devices = service.DefaultConfig().Devices
	}
	if fleets <= 0 {
		fleets = 1
	}
	cfg := core.DefaultConfig()
	if sch != nil {
		cfg.Resilience = core.DefaultResilience()
	}
	picks := make([]vtime.Pick, n)
	for i := range picks {
		name := mix.Pick(uint64(i))
		picks[i] = vtime.Pick{Name: name, Scenario: scenarios[name]}
	}
	w := vtime.FleetWorkload(cfg, seed, fleets, devices, picks, sch)
	start := time.Now()
	rep, err := vtime.Run(w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: virtual engine: %v\n", err)
		return 1
	}
	wall := time.Since(start)

	outcomes := map[string]int{}
	var delays sim.Stats
	for _, r := range rep.Results {
		outcomes[r.Outcome.String()]++
		delays.Add(float64(r.Timeline.Total().Nanoseconds()) / 1e6)
	}
	rec := virtualRecord{
		Header:      benchenv.Capture(),
		Virtual:     true,
		Requests:    n,
		Fleets:      fleets,
		Devices:     devices,
		Mix:         mixSpec,
		Chaos:       chaosSpec,
		Sessions:    len(w.Sessions),
		WallSeconds: wall.Seconds(),
		Throughput:  float64(len(w.Sessions)) / wall.Seconds(),
		VirtualEndS: rep.VirtualEnd.Seconds(),
		MemoHits:    rep.MemoHits,
		MemoMisses:  rep.MemoMisses,
		Outcomes:    outcomes,
		UnlockDelay: summarize(&delays),
		Note: "Virtual-time dry run: sessions executed on the discrete-event engine, no daemon or HTTP transport. " +
			"unlock_delay is the virtual protocol timeline (bit-identical to a serial run per internal/vtime's " +
			"equivalence suite); sessions_per_sec counts logical sessions, amortized across replica fleets by " +
			"transition memoization.",
	}

	fmt.Printf("\n%d requests × %d fleets over %d devices  →  %.2fs wall, %.1f sessions/s (virtual end %.1fs)\n",
		rec.Requests, rec.Fleets, rec.Devices, rec.WallSeconds, rec.Throughput, rec.VirtualEndS)
	names := make([]string, 0, len(outcomes))
	for k := range outcomes {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-22s %d\n", k, outcomes[k])
	}
	fmt.Printf("  unlock delay p50 %.1fms  p90 %.1fms  p99 %.1fms\n",
		rec.UnlockDelay.P50MS, rec.UnlockDelay.P90MS, rec.UnlockDelay.P99MS)
	fmt.Printf("  memo: %d hits / %d misses\n", rec.MemoHits, rec.MemoMisses)

	if out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", out)
	}
	return 0
}

// resolveMix resolves a -mix flag value against the scenario registry.
// It runs before any daemon boots or any request is sent, so an
// unregistered scenario name is a startup error listing every registered
// name — not a mid-run HTTP 400 after traffic already flowed.
func resolveMix(spec string) (*service.Mix, map[string]core.Scenario, error) {
	scenarios := catalog.ServiceScenarios()
	mix, err := service.ParseMix(spec, scenarios)
	if err != nil {
		return nil, nil, err
	}
	return mix, scenarios, nil
}

// storeReport is the durability slice of the consistency gate, present
// only when the run drove a daemon with a -state-dir.
type storeReport struct {
	WALRecords      int     `json:"wal_records_total"`
	Corruptions     int     `json:"store_corruptions_total"`
	RecoverySeconds float64 `json:"recovery_seconds"`
	FsyncDisabled   bool    `json:"fsync_disabled"`
	Commits         int     `json:"commit_count"`
	MeanBatchSize   float64 `json:"mean_batch_size"`
	Consistent      bool    `json:"consistent"`
	Detail          string  `json:"detail,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "http://localhost:8547", "daemon base URL")
		selfhost = fs.Bool("selfhost", false, "boot an in-process daemon on a loopback port")
		n        = fs.Int("n", 256, "total requests")
		c        = fs.Int("c", 32, "concurrent client workers")
		rate     = fs.Float64("rate", 0, "open-loop arrival rate per second (0 = closed loop)")
		mixSpec  = fs.String("mix", catalog.DefaultMixSpec(), "weighted scenario mix over registered scenario names")
		timeout  = fs.Duration("timeout", 60*time.Second, "per-request client timeout")
		out      = fs.String("out", "", "also write the report JSON to this path")
		devices  = fs.Int("devices", 0, "selfhost: fleet size (0 = default)")
		queue    = fs.Int("queue", 0, "selfhost: admission queue bound (0 = default)")
		seed     = fs.Int64("seed", 42, "selfhost: daemon seed")
		chaos    = fs.String("chaos", "", "selfhost: fault schedule (registered chaos name or JSON file path, empty = off)")
		stateDir = fs.String("state-dir", "", "selfhost: durable state directory; arms the store-metrics consistency gate")
		virtual  = fs.Bool("virtual", false, "run the admission stream on the virtual-time engine instead of a daemon")
		fleets   = fs.Int("fleets", 1, "virtual: replica device fleets to interleave")
		shards   = fs.Int("selfhost-shards", 0, "boot an in-process cluster (gateway + this many shard daemons) and drive load through the gateway")
		paceAir  = fs.Float64("pace", 0, "selfhost: airtime pacing factor (hold each device for pace × protocol timeline; 0 = off)")
		failover = fs.Duration("failover", 0, "selfhost: kill the primary this long into the run and promote a warm standby mid-load; arms the availability gate")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	mix, scenarios, err := resolveMix(*mixSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}
	// Only a single selfhost daemon and the virtual engine apply a fault
	// schedule; any other mode would drop -chaos silently.
	sch, err := catalog.ResolveChaos(*chaos)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}
	if sch != nil && !*virtual && (!*selfhost || *shards > 0 || *failover > 0) {
		fmt.Fprintln(os.Stderr, "loadgen: -chaos applies only to a single -selfhost daemon or -virtual; -selfhost-shards, -failover and -addr would drop it")
		return 1
	}
	if *virtual {
		return runVirtual(mix, scenarios, *n, *devices, *fleets, *seed, *mixSpec, *chaos, sch, *out)
	}
	if *failover > 0 && *shards > 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -failover drives a single primary/standby pair; drop -selfhost-shards")
		return 1
	}

	cfg := service.DefaultConfig()
	cfg.Seed = *seed
	if *devices > 0 {
		cfg.Devices = *devices
	}
	if *queue > 0 {
		cfg.QueueDepth = *queue
	}
	cfg.PaceAirtime = *paceAir
	base := strings.TrimSuffix(*addr, "/")
	var rg *rig.Rig
	switch {
	case *failover > 0:
		dir := *stateDir
		if dir == "" {
			if dir, err = os.MkdirTemp("", "loadgen-failover-*"); err != nil {
				break
			}
			defer os.RemoveAll(dir)
		}
		rg, err = bootFailover(cfg, dir)
		if err == nil {
			fmt.Printf("failover rig on %s (primary + warm standby; kill at +%s)\n", rg.URL, *failover)
		}
	case *shards > 0:
		var cfgs []service.Config
		for i := 0; i < *shards; i++ {
			sc := cfg
			sc.ShardID = fmt.Sprintf("s%d", i)
			if *stateDir != "" {
				sc.StateDir = filepath.Join(*stateDir, sc.ShardID)
			}
			cfgs = append(cfgs, sc)
		}
		rg, err = rig.Cluster(cfgs, cluster.GatewayConfig{})
		if err == nil {
			fmt.Printf("selfhost cluster on %s (%d shards, %d devices)\n", rg.URL, *shards, cfg.Devices)
		}
	case *selfhost:
		cfg.Chaos = sch
		// The rig drives no load until recovery completes: the store gate
		// below accounts durable records against completed sessions.
		cfg.StateDir = *stateDir
		rg, err = rig.Single(cfg)
		if err == nil {
			fmt.Printf("selfhost daemon on %s (%d devices, queue %d)\n", rg.URL, cfg.Devices, cfg.QueueDepth)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: selfhost: %v\n", err)
		return 1
	}
	if rg != nil {
		defer rg.Close()
		base = rg.URL
	}
	isFailover := *failover > 0
	var initial store.State
	if isFailover {
		// Pre-load snapshot: the pairing-key and counter floor every device
		// must still satisfy after promotion.
		initial, _ = rg.Daemons[0].StoreState()
		rg.StartHeartbeats(3 * time.Millisecond)
	}

	client := &http.Client{Timeout: *timeout}

	// Open-loop pacing: a ticker feeds request permits; closed loop hands
	// out permits immediately. Workers pull the next request index from a
	// shared counter so the scenario mix is exact regardless of
	// interleaving.
	var pace <-chan time.Time
	if *rate > 0 {
		ticker := time.NewTicker(time.Duration(float64(time.Second) / *rate))
		defer ticker.Stop()
		pace = ticker.C
	}

	var (
		next      atomic.Int64
		rejected  atomic.Int64
		deferred  atomic.Int64
		httpErrs  atomic.Int64
		mu        sync.Mutex
		outcomes  = map[string]int{}
		latencies sim.Stats
		delays    sim.Stats
	)
	var (
		foMu          sync.Mutex
		ackedByDevice = map[int]int{}
		first503      time.Time
		last503       time.Time
	)
	start := time.Now()
	if isFailover {
		kill := time.AfterFunc(*failover, rg.KillPrimary)
		defer kill.Stop()
	}
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(*n) {
					return
				}
				if pace != nil {
					<-pace
				}
				req := rig.Request{Scenario: mix.Pick(uint64(i))}
				view, code, ra, err := rig.Unlock(client, base, req)
				// 429 is queue backpressure; 503 with a Retry-After header is
				// deferral (draining shard, fenced handoff range, gateway
				// retry hint) — both carry a retry time, so neither is a
				// dropped request.
				for err == nil && (code == http.StatusTooManyRequests ||
					(code == http.StatusServiceUnavailable && ra != "")) {
					if code == http.StatusTooManyRequests {
						rejected.Add(1)
					} else {
						deferred.Add(1)
						if isFailover {
							now := time.Now()
							foMu.Lock()
							if first503.IsZero() {
								first503 = now
							}
							last503 = now
							foMu.Unlock()
						}
					}
					time.Sleep(retryAfter(ra))
					view, code, ra, err = rig.Unlock(client, base, req)
				}
				if err != nil || code != http.StatusOK {
					httpErrs.Add(1)
					continue
				}
				mu.Lock()
				key := view.Outcome
				if view.State == "failed" || key == "" {
					key = "error"
				}
				outcomes[key]++
				latencies.Add(view.WallMS)
				if view.UnlockDelayMS > 0 {
					delays.Add(view.UnlockDelayMS)
				}
				mu.Unlock()
				if isFailover && view.Unlocked {
					foMu.Lock()
					ackedByDevice[view.Device]++
					foMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	completed := 0
	for _, v := range outcomes {
		completed += v
	}

	// The metrics-consistency gate certifies a daemon whose counters
	// cover the whole run; a scripted failover kills the primary and its
	// counters with it, so the failover run certifies availability
	// instead (below) and skips the scrape.
	var daemonOutcomes map[string]int
	var storeRep *storeReport
	detail, diff := "", ""
	match := true
	if !isFailover {
		samples, err := rig.Scrape(client, base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: metrics scrape: %v\n", err)
			return 1
		}
		daemonOutcomes = map[string]int{}
		for _, s := range samples {
			if outcome := s.Labels["outcome"]; s.Name == "wearlockd_sessions_total" && outcome != "" {
				daemonOutcomes[outcome] += int(s.Value)
			}
		}
		detail = fmt.Sprintf("%d outcome counters scraped.", len(daemonOutcomes))
		match, diff = compareOutcomes(outcomes, daemonOutcomes)
		if *stateDir != "" {
			if storeRep, err = storeMetrics(samples, completed); err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: store metrics scrape: %v\n", err)
				return 1
			}
		}
	} else {
		detail = "metrics certification skipped: the scripted failover took the primary's counters with it. "
	}

	// Availability gate: the scripted failover must have promoted the
	// standby, every failed request must have been a retryable 503, the
	// 503 burst must be bounded, and every 200-acked unlock must be
	// covered by the promoted follower's verifier counters.
	var foRep *failoverReport
	if isFailover {
		foRep = availability(rg, initial, *failover, ackedByDevice, httpErrs.Load(), deferred.Load(), first503, last503)
	}
	rec := record{
		Header:         benchenv.Capture(),
		Requests:       *n,
		Concurrency:    *c,
		RatePerSec:     *rate,
		Mix:            *mixSpec,
		Chaos:          *chaos,
		Selfhost:       *selfhost || *shards > 0,
		Shards:         *shards,
		WallSeconds:    wall.Seconds(),
		Throughput:     float64(completed) / wall.Seconds(),
		Outcomes:       outcomes,
		Rejected429:    rejected.Load(),
		Deferred503:    deferred.Load(),
		HTTPErrors:     httpErrs.Load(),
		Latency:        summarize(&latencies),
		UnlockDelay:    summarize(&delays),
		MetricsMatch:   match,
		MetricsDetail:  diff,
		DaemonOutcomes: daemonOutcomes,
		Store:          storeRep,
		Failover:       foRep,
		Note: "Closed-loop (or -rate paced) synchronous unlock sessions against wearlockd's HTTP API. " +
			"latency = client-observed wall clock incl. queueing; unlock_delay = simulated protocol timeline. " +
			"metrics_match_observed compares /metrics outcome counters to client-side counts. " + detail,
	}

	printReport(rec)
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if !match {
		fmt.Fprintf(os.Stderr, "loadgen: daemon metrics disagree with observed outcomes: %s\n", diff)
		// Only a freshly-booted daemon's counters must match exactly; an
		// external daemon may carry traffic from before this run.
		if *selfhost || *shards > 0 {
			return 1
		}
	}
	if storeRep != nil && !storeRep.Consistent {
		fmt.Fprintf(os.Stderr, "loadgen: store metrics inconsistent: %s\n", storeRep.Detail)
		if *selfhost || *shards > 0 {
			return 1
		}
	}
	if foRep != nil {
		if !foRep.Pass {
			fmt.Fprintf(os.Stderr, "loadgen: availability gate failed: %s\n", foRep.Detail)
			return 1
		}
		fmt.Printf("availability gate pass: promoted standby, %d deferred 503s in a %.0f ms burst, "+
			"%d acked unlocks all covered after promotion\n",
			foRep.Deferred503, foRep.BurstSpanMS, foRep.AckedUnlocks)
	}
	return 0
}

// storeMetrics grades the durability slice of the scrape. A gateway's
// aggregated exposition carries these series once per shard with a shard
// label: counters (and histogram sums/counts) sum, the recovery gauge
// reports the slowest shard, and the fsync-disabled gauge trips if any
// shard runs unsafe. Every series must be present whenever the daemon
// runs with a state dir; an absent one is a scrape failure, not a zero.
func storeMetrics(samples []telemetry.Sample, completed int) (*storeReport, error) {
	rep := &storeReport{}
	var batchSum, batchCount float64
	seen := map[string]bool{}
	for _, s := range samples {
		switch s.Name {
		case "wearlockd_wal_records_total":
			rep.WALRecords += int(s.Value)
		case "wearlockd_store_corruptions_total":
			rep.Corruptions += int(s.Value)
		case "wearlockd_recovery_seconds":
			rep.RecoverySeconds = max(rep.RecoverySeconds, s.Value)
		case "wearlockd_fsync_disabled":
			rep.FsyncDisabled = rep.FsyncDisabled || s.Value > 0
		case "wearlockd_commit_seconds_count":
			// Presence-checked only; the latency distribution is informational.
		case "wearlockd_wal_batch_size_sum":
			batchSum += s.Value
		case "wearlockd_wal_batch_size_count":
			batchCount += s.Value
		default:
			continue
		}
		seen[s.Name] = true
	}
	for _, want := range []string{
		"wearlockd_wal_records_total", "wearlockd_store_corruptions_total", "wearlockd_recovery_seconds",
		"wearlockd_fsync_disabled", "wearlockd_commit_seconds_count", "wearlockd_wal_batch_size_sum",
		"wearlockd_wal_batch_size_count",
	} {
		if !seen[want] {
			return nil, fmt.Errorf("%s missing from /metrics", want)
		}
	}
	rep.Commits = int(batchCount)
	if batchCount > 0 {
		rep.MeanBatchSize = batchSum / batchCount
	}

	// Every completed session must have left at least one durable WAL
	// record behind, and a clean run must report zero corruptions.
	var problems []string
	if rep.FsyncDisabled {
		// A no-fsync run can report every other number perfectly and
		// still lose acknowledged sessions at the wall socket; the gate
		// refuses to certify it rather than grading it.
		problems = append(problems, "wearlockd_fsync_disabled=1: commits are not power-loss durable, refusing to certify")
	}
	if rep.Corruptions != 0 {
		problems = append(problems, fmt.Sprintf("wearlockd_store_corruptions_total=%d, want 0", rep.Corruptions))
	}
	if rep.WALRecords < completed {
		problems = append(problems, fmt.Sprintf("wearlockd_wal_records_total=%d < %d completed sessions", rep.WALRecords, completed))
	}
	if completed > 0 {
		if rep.Commits == 0 {
			problems = append(problems, "wearlockd_wal_batch_size_count=0: the group committer recorded no batches")
		} else if rep.MeanBatchSize < 1 {
			problems = append(problems, fmt.Sprintf("wearlockd_wal_batch_size mean=%.3f < 1: batches smaller than their own records", rep.MeanBatchSize))
		}
	}
	rep.Consistent = len(problems) == 0
	rep.Detail = strings.Join(problems, "; ")
	return rep, nil
}

func retryAfter(header string) time.Duration {
	if secs, err := strconv.Atoi(header); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return 100 * time.Millisecond
}

// compareOutcomes checks the daemon's counters cover exactly the
// client-observed counts (both directions).
func compareOutcomes(observed, daemon map[string]int) (bool, string) {
	var diffs []string
	for k, v := range observed {
		if daemon[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s: observed %d, daemon %d", k, v, daemon[k]))
		}
	}
	for k, v := range daemon {
		if _, ok := observed[k]; !ok && v != 0 {
			diffs = append(diffs, fmt.Sprintf("%s: observed 0, daemon %d", k, v))
		}
	}
	if len(diffs) == 0 {
		return true, ""
	}
	sort.Strings(diffs)
	return false, strings.Join(diffs, "; ")
}

func summarize(s *sim.Stats) latencySummary {
	sum := s.Summarize()
	return latencySummary{
		Count:  sum.Count,
		MeanMS: sum.Mean,
		P50MS:  sum.P50,
		P90MS:  sum.P90,
		P99MS:  sum.P99,
		MaxMS:  sum.Max,
	}
}

func printReport(rec record) {
	fmt.Printf("\n%d requests, %d workers", rec.Requests, rec.Concurrency)
	if rec.RatePerSec > 0 {
		fmt.Printf(", %.0f req/s pacing", rec.RatePerSec)
	}
	fmt.Printf("  →  %.2fs wall, %.1f sessions/s\n", rec.WallSeconds, rec.Throughput)
	names := make([]string, 0, len(rec.Outcomes))
	for k := range rec.Outcomes {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-22s %d\n", k, rec.Outcomes[k])
	}
	if rec.Rejected429 > 0 {
		fmt.Printf("  %-22s %d (retried)\n", "429 backpressure", rec.Rejected429)
	}
	if rec.HTTPErrors > 0 {
		fmt.Printf("  %-22s %d\n", "http errors", rec.HTTPErrors)
	}
	fmt.Printf("  latency      p50 %.1fms  p90 %.1fms  p99 %.1fms  max %.1fms\n",
		rec.Latency.P50MS, rec.Latency.P90MS, rec.Latency.P99MS, rec.Latency.MaxMS)
	fmt.Printf("  unlock delay p50 %.1fms  p90 %.1fms  p99 %.1fms\n",
		rec.UnlockDelay.P50MS, rec.UnlockDelay.P90MS, rec.UnlockDelay.P99MS)
	fmt.Printf("  metrics consistency: %v\n", rec.MetricsMatch)
	if rec.MetricsDetail != "" && !rec.MetricsMatch {
		fmt.Printf("    %s\n", rec.MetricsDetail)
	}
	if rec.Store != nil {
		fmt.Printf("  store consistency: %v (%d WAL records, %d corruptions, recovery %.3fs, %d commit batches, mean batch %.2f)\n",
			rec.Store.Consistent, rec.Store.WALRecords, rec.Store.Corruptions, rec.Store.RecoverySeconds,
			rec.Store.Commits, rec.Store.MeanBatchSize)
		if !rec.Store.Consistent {
			fmt.Printf("    %s\n", rec.Store.Detail)
		}
	}
}

// failoverReport is the -failover availability gate's outcome: the
// scripted mid-load failover must promote the warm standby, every
// failed request must have been a retryable 503, the 503 burst must be
// bounded, and the shared oracle must find every 200-acked unlock
// covered by the promoted follower's durable state.
type failoverReport struct {
	KillAfterS         float64 `json:"kill_after_seconds"`
	Promoted           bool    `json:"promoted"`
	Deferred503        int64   `json:"deferred_503"`
	BurstSpanMS        float64 `json:"burst_span_ms"`
	AckedUnlocks       int     `json:"acked_unlocks"`
	NonRetryableErrors int64   `json:"non_retryable_errors"`
	rig.Verdict
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// bootFailover boots the -failover pair from the daemon config: a
// durable primary and an attached warm standby of the same fleet behind
// a registered gateway with a 2-miss failover threshold. The run
// certifies availability, not power-loss durability, so fsync is off.
func bootFailover(cfg service.Config, stateDir string) (*rig.Rig, error) {
	cfg.ShardID = "s0"
	cfg.NoFsync = true
	primary, standby := cfg, cfg
	primary.StateDir = filepath.Join(stateDir, "primary")
	standby.StateDir = filepath.Join(stateDir, "standby")
	standby.Follow = true
	return rig.Pair(primary, standby, cluster.GatewayConfig{
		HeartbeatMisses: 2,
		Client:          &http.Client{Timeout: 10 * time.Second},
	})
}

// availability grades the -failover gate after the load loop drained.
func availability(rg *rig.Rig, initial store.State, killAfter time.Duration, acked map[int]int, nonRetryable, deferred int64, first503, last503 time.Time) *failoverReport {
	rep := &failoverReport{
		KillAfterS:         killAfter.Seconds(),
		Deferred503:        deferred,
		NonRetryableErrors: nonRetryable,
	}
	for _, n := range acked {
		rep.AckedUnlocks += n
	}
	if !first503.IsZero() {
		rep.BurstSpanMS = float64(last503.Sub(first503)) / float64(time.Millisecond)
	}
	var problems []string
	role := rg.Standby.ReplicaStatus().Role
	rep.Promoted = role == "promoted"
	if !rep.Promoted {
		problems = append(problems, fmt.Sprintf("standby role %q, want promoted (did the run outlast -failover?)", role))
	}
	if nonRetryable > 0 {
		problems = append(problems, fmt.Sprintf("%d non-retryable errors; every failure across the kill must be a retryable 503", nonRetryable))
	}
	const burstMax = 2500 * time.Millisecond
	if !first503.IsZero() && last503.Sub(first503) > burstMax {
		problems = append(problems, fmt.Sprintf("503 burst spanned %.0f ms, want <= %v", rep.BurstSpanMS, burstMax))
	}
	if final, ok := rg.Standby.StoreState(); !ok {
		problems = append(problems, "promoted standby has no store state")
	} else {
		rep.Verdict = rig.Oracle(initial, acked, final)
		problems = append(problems, rep.Verdict.Problems()...)
	}
	if rep.AckedUnlocks == 0 {
		problems = append(problems, "no acked unlocks observed — the gate exercised nothing")
	}
	rep.Pass = len(problems) == 0
	rep.Detail = strings.Join(problems, "; ")
	return rep
}
