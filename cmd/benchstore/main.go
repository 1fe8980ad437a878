// Command benchstore measures the durable state store along the three
// axes that matter for the fleet: cold-start recovery (snapshot load +
// segmented WAL replay), concurrent commit throughput (the group
// committer's fsync amortization against a one-fsync-per-record
// baseline), and parallel replay speedup (checkpoint-skipping segmented
// replay against a full serial decode of the same bytes). The report
// doubles as a regression gate:
//
//   - replay time must scale monotonically with WAL size and the
//     largest replay must finish under -gate (recovery time is
//     downtime — wearlockd rejects unlocks with 503 until then);
//   - the group committer must sustain at least -commit-gate times the
//     per-record-fsync baseline at -writers concurrent writers;
//   - segmented replay must beat the serial full decode by at least
//     -replay-gate while recovering a bit-identical state.
//
// With -check it additionally runs the kill -9 chaos drill: -chaos-cycles
// cycles of SIGKILLing a subprocess that commits from concurrent writers
// through the group committer over tiny segments, so kills land mid-batch
// and at segment seal/checkpoint boundaries. Every acknowledged commit
// must survive recovery (zero acked-but-lost), counters must never
// regress, and recovery must report zero corruptions.
//
// Usage:
//
//	benchstore [-sizes 1000,5000,10000] [-iters 5] [-devices 64]
//	           [-gate 2s] [-writers 64] [-commits 48] [-commit-gate 5]
//	           [-replay-gate 2] [-check] [-chaos-cycles 50]
//	           [-out BENCH_store.json]
//
// Exit status 1 when any gate fails.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wearlock/internal/benchenv"
	"wearlock/internal/rig"
	"wearlock/internal/store"
)

type entry struct {
	Records      int     `json:"records"`
	WALBytes     int64   `json:"wal_bytes"`
	Segments     int     `json:"segments"`
	ReplayMS     float64 `json:"replay_ms"`
	RecordsPerMS float64 `json:"records_per_ms"`
	Iters        int     `json:"iters"`
}

// commitBench is the group-commit throughput result: the same record
// stream pushed by the same writer pool through a per-record-fsync store
// (CommitMaxBatch=1) and through the batching group committer.
type commitBench struct {
	Writers          int     `json:"writers"`
	CommitsPerWriter int     `json:"commits_per_writer"`
	BaselinePerSec   float64 `json:"baseline_commits_per_sec"`
	GroupPerSec      float64 `json:"group_commits_per_sec"`
	MeanBatch        float64 `json:"mean_batch_size"`
	Speedup          float64 `json:"speedup"`
	GateMin          float64 `json:"gate_min_speedup"`
	Pass             bool    `json:"pass"`
}

// replayBench is the segmented-replay result: InspectFullDecode with one
// worker (every record JSON-decoded serially — the pre-segmentation
// behavior) against Inspect with -replay-workers (checkpoint-skipping
// two-phase replay) over the identical bytes.
type replayBench struct {
	Records    int     `json:"records"`
	Segments   int     `json:"segments"`
	Workers    int     `json:"workers"`
	SerialMS   float64 `json:"serial_full_decode_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
	Identical  bool    `json:"bit_identical"`
	GateMin    float64 `json:"gate_min_speedup"`
	Pass       bool    `json:"pass"`
}

// chaosBench is the kill -9 drill result; the safety counts are the
// shared oracle's, summed over cycles.
type chaosBench struct {
	Cycles     int    `json:"cycles"`
	AckedTotal uint64 `json:"acked_commits_total"`
	rig.Verdict
	Corruptions int  `json:"corruptions"`
	Pass        bool `json:"pass"`
}

type report struct {
	benchenv.Header
	Devices  int          `json:"devices"`
	Entries  []entry      `json:"entries"`
	GateMS   float64      `json:"gate_ms"`
	GatePass bool         `json:"gate_pass"`
	Monotone bool         `json:"monotone"`
	Commit   *commitBench `json:"commit_throughput,omitempty"`
	Replay   *replayBench `json:"parallel_replay,omitempty"`
	Chaos    *chaosBench  `json:"kill_chaos,omitempty"`
	Note     string       `json:"note"`
}

func main() {
	os.Exit(run())
}

func parseSizes(spec string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		sizes = append(sizes, n)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			return nil, fmt.Errorf("sizes must be strictly increasing, got %v", sizes)
		}
	}
	return sizes, nil
}

func deviceRecord(i, devices int) store.DeviceState {
	id := i % devices
	key := make([]byte, 16)
	for b := range key {
		key[b] = byte(id + b)
	}
	return store.DeviceState{
		ID:          id,
		Key:         key,
		GenCounter:  uint64(i/devices + 1),
		VerCounter:  uint64(i / devices),
		GuardState:  i % 3,
		NowUnixNano: int64(i) * int64(time.Millisecond),
		RngDraws:    uint64(i),
	}
}

// walSize sums the on-disk bytes of every WAL segment (plus a legacy
// wal.log, if present) in replay order.
func walSize(dir string) (int64, int, error) {
	paths, err := store.WALFiles(dir)
	if err != nil {
		return 0, 0, err
	}
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, 0, err
		}
		total += fi.Size()
	}
	return total, len(paths), nil
}

// populate writes n device records into a fresh store directory and
// returns the total WAL size and segment count. Compaction is disabled
// so the whole history stays in the log — the point is an n-record
// replay. NoFsync keeps population fast; replay cost is unaffected
// (reads don't fsync). segBytes=0 uses the default segment size.
func populate(dir string, n, devices int, segBytes int64) (int64, int, error) {
	s, err := store.Open(store.Options{Dir: dir, NoFsync: true, SegmentBytes: segBytes})
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < n; i++ {
		if err := s.CommitDevice(deviceRecord(i, devices)); err != nil {
			s.Close()
			return 0, 0, err
		}
	}
	if err := s.Close(); err != nil {
		return 0, 0, err
	}
	return walSize(dir)
}

// measure replays the directory iters times via the read-only Inspect
// path and returns the fastest replay (minimum filters scheduler noise;
// the bytes are identical every iteration).
func measure(dir string, iters int) (time.Duration, error) {
	best := time.Duration(-1)
	for i := 0; i < iters; i++ {
		st, info, err := store.Inspect(dir)
		if err != nil {
			return 0, err
		}
		if info.Damaged() {
			return 0, fmt.Errorf("freshly populated store reports damage: %+v", info)
		}
		if len(st.Devices) == 0 {
			return 0, fmt.Errorf("replay recovered no devices")
		}
		if best < 0 || info.ReplayDuration < best {
			best = info.ReplayDuration
		}
	}
	return best, nil
}

// commitRun drives writers×perWriter real-fsync commits through a fresh
// store and returns committed records per second (and the mean batch
// size the committer achieved). maxBatch=1 is the baseline: the group
// committer degenerates to one fsync per record, exactly the
// pre-batching store.
func commitRun(writers, perWriter, devices, maxBatch int) (perSec, meanBatch float64, err error) {
	dir, err := os.MkdirTemp("", "benchstore-commit-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	var batches, records atomic.Int64
	s, err := store.Open(store.Options{
		Dir:            dir,
		CommitMaxBatch: maxBatch,
		OnCommitBatch: func(n int) {
			batches.Add(1)
			records.Add(int64(n))
		},
	})
	if err != nil {
		return 0, 0, err
	}
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if cerr := s.CommitDevice(deviceRecord(w*perWriter+i, devices)); cerr != nil {
					errCh <- cerr
					return
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	if cerr := s.Close(); cerr != nil && err == nil {
		err = cerr
	}
	select {
	case werr := <-errCh:
		return 0, 0, werr
	default:
	}
	total := writers * perWriter
	if b := batches.Load(); b > 0 {
		meanBatch = float64(records.Load()) / float64(b)
	}
	return float64(total) / wall.Seconds(), meanBatch, err
}

// benchCommit compares the per-record-fsync baseline against the group
// committer on identical workloads.
func benchCommit(writers, perWriter, devices int, gateMin float64) (*commitBench, error) {
	basePerSec, _, err := commitRun(writers, perWriter, devices, 1)
	if err != nil {
		return nil, fmt.Errorf("baseline run: %w", err)
	}
	groupPerSec, meanBatch, err := commitRun(writers, perWriter, devices, 0)
	if err != nil {
		return nil, fmt.Errorf("group run: %w", err)
	}
	cb := &commitBench{
		Writers:          writers,
		CommitsPerWriter: perWriter,
		BaselinePerSec:   basePerSec,
		GroupPerSec:      groupPerSec,
		MeanBatch:        meanBatch,
		Speedup:          groupPerSec / basePerSec,
		GateMin:          gateMin,
	}
	cb.Pass = cb.Speedup >= gateMin
	return cb, nil
}

// benchReplay populates a multi-segment log and times the serial full
// decode (every record JSON-decoded, one worker — the old replay)
// against the checkpoint-skipping parallel replay, asserting the
// recovered states are bit-identical.
func benchReplay(records, devices, workers, iters int, gateMin float64) (*replayBench, error) {
	dir, err := os.MkdirTemp("", "benchstore-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Small segments force rolls and checkpoint footers, the shape a
	// long-lived daemon's directory converges to.
	_, segments, err := populate(dir, records, devices, 128<<10)
	if err != nil {
		return nil, fmt.Errorf("populate: %w", err)
	}

	type inspect func() (store.State, store.RecoveryInfo, error)
	run := func(f inspect) (time.Duration, store.State, error) {
		best := time.Duration(-1)
		var st store.State
		for i := 0; i < iters; i++ {
			s, info, err := f()
			if err != nil {
				return 0, store.State{}, err
			}
			if info.Damaged() {
				return 0, store.State{}, fmt.Errorf("clean log reports damage: %+v", info)
			}
			if best < 0 || info.ReplayDuration < best {
				best = info.ReplayDuration
			}
			st = s
		}
		return best, st, nil
	}

	serial, serialState, err := run(func() (store.State, store.RecoveryInfo, error) {
		return store.InspectFullDecode(dir, 1)
	})
	if err != nil {
		return nil, fmt.Errorf("serial full decode: %w", err)
	}
	parallel, parallelState, err := run(func() (store.State, store.RecoveryInfo, error) {
		return store.InspectParallel(dir, workers)
	})
	if err != nil {
		return nil, fmt.Errorf("parallel replay: %w", err)
	}

	a, err := json.Marshal(serialState)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(parallelState)
	if err != nil {
		return nil, err
	}
	rb := &replayBench{
		Records:    records,
		Segments:   segments,
		Workers:    workers,
		SerialMS:   float64(serial) / float64(time.Millisecond),
		ParallelMS: float64(parallel) / float64(time.Millisecond),
		Speedup:    float64(serial) / float64(parallel),
		Identical:  bytes.Equal(a, b),
		GateMin:    gateMin,
	}
	rb.Pass = rb.Identical && rb.Speedup >= gateMin
	return rb, nil
}

// --- kill -9 chaos drill -------------------------------------------------

// killChild is the subprocess body: concurrent writers commit
// monotonically increasing per-device counters through the group
// committer over tiny segments, acknowledging each durable commit on
// stdout as "committed <dev> <counter>". The parent SIGKILLs it
// mid-stream, so deaths land mid-batch and at segment boundaries.
func killChild(dir string) int {
	s, err := store.Open(store.Options{
		Dir:          dir,
		SegmentBytes: 2048, // seal + checkpoint every ~8 records
	})
	if err != nil {
		fmt.Println("open-error", err)
		return 1
	}
	const writers = 8
	var mu sync.Mutex // serializes ack lines
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			counter := uint64(0)
			if d, ok := s.Device(dev); ok {
				counter = d.GenCounter
			}
			for {
				counter++
				ds := store.DeviceState{ID: dev, Key: []byte("kill-key"), GenCounter: counter, VerCounter: counter}
				if err := s.CommitDevice(ds); err != nil {
					fmt.Println("commit-error", err)
					os.Exit(1)
				}
				// Acknowledged only after the commit's batch fsync returned:
				// this line is the child's accepted⇒durable promise.
				mu.Lock()
				fmt.Println("committed", dev, counter)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return 0
}

// runKillChaos SIGKILLs the committing subprocess for the given number
// of cycles and, after each kill, runs the shared safety oracle from the
// previous cycle's recovered state (the floor) to this one's: no device
// lost, no counter below the floor, and every acked commit durable. The
// acked count per device is its last acked counter minus the floor,
// which is exact because the child counts up by one from the recovered
// counter.
func runKillChaos(cycles int, seed int64) (*chaosBench, error) {
	dir, err := os.MkdirTemp("", "benchstore-chaos-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rng := rand.New(rand.NewSource(seed))

	cb := &chaosBench{Cycles: cycles}
	var floor store.State // the previous cycle's recovered state
	for cycle := 0; cycle < cycles; cycle++ {
		cmd := exec.Command(os.Args[0], "-kill-child", "-kill-dir", dir)
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		acked := map[int]uint64{}
		sc := bufio.NewScanner(out)
		// Let a random number of acks through before killing so deaths
		// land at varying points in the batch/segment cadence.
		target := 8 + rng.Intn(24)
		acks := 0
		for acks < target && sc.Scan() {
			line := sc.Text()
			fields := strings.Fields(line)
			if len(fields) != 3 || fields[0] != "committed" {
				if strings.Contains(line, "error") {
					cmd.Process.Kill()
					cmd.Wait()
					return nil, fmt.Errorf("cycle %d child: %s", cycle, line)
				}
				continue
			}
			dev, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.ParseUint(fields[2], 10, 64)
			if err1 != nil || err2 != nil {
				cmd.Process.Kill()
				cmd.Wait()
				return nil, fmt.Errorf("cycle %d: bad ack %q", cycle, line)
			}
			if v > acked[dev] {
				acked[dev] = v
			}
			acks++
		}
		if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
			return nil, fmt.Errorf("cycle %d: kill: %v", cycle, err)
		}
		cmd.Wait()
		cb.AckedTotal += uint64(acks)

		st, info, err := store.Inspect(dir)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: post-kill Inspect: %v", cycle, err)
		}
		// kill -9 loses process memory, never synced bytes: a clean
		// directory must replay with zero corruptions and no distrust.
		if info.Corruptions != 0 || len(info.Distrusted) != 0 {
			cb.Corruptions += info.Corruptions + len(info.Distrusted)
			fmt.Fprintf(os.Stderr, "benchstore: chaos cycle %d: kill -9 produced damage: %+v\n", cycle, info)
		}
		delta := map[int]int{}
		for dev, v := range acked {
			delta[dev] = int(v - floor.Devices[dev].VerCounter)
		}
		verdict := rig.Oracle(floor, delta, st)
		for _, f := range verdict.Failures {
			fmt.Fprintf(os.Stderr, "benchstore: chaos cycle %d: %s\n", cycle, f)
		}
		cb.Verdict.Add(verdict)
		floor = st
	}
	cb.Pass = cb.Verdict.OK() && cb.Corruptions == 0
	return cb, nil
}

func run() int {
	var (
		sizesSpec   = flag.String("sizes", "1000,5000,10000", "comma-separated WAL record counts, strictly increasing")
		iters       = flag.Int("iters", 5, "replay iterations per size (fastest wins)")
		devices     = flag.Int("devices", 64, "distinct device IDs cycled through the records")
		gate        = flag.Duration("gate", 2*time.Second, "hard ceiling for the largest size's replay")
		writers     = flag.Int("writers", 64, "concurrent writers for the commit-throughput benchmark")
		commits     = flag.Int("commits", 48, "commits per writer in the commit-throughput benchmark")
		commitGate  = flag.Float64("commit-gate", 5, "min group-commit speedup over the per-record-fsync baseline")
		replayGate  = flag.Float64("replay-gate", 2, "min segmented-replay speedup over the serial full decode")
		replayRecs  = flag.Int("replay-records", 20000, "record count for the parallel-replay benchmark")
		replayWkrs  = flag.Int("replay-workers", 4, "apply workers for the parallel-replay benchmark")
		check       = flag.Bool("check", false, "also run the kill -9 chaos drill (CI mode)")
		chaosCycles = flag.Int("chaos-cycles", 50, "kill -9 cycles in the chaos drill")
		chaosSeed   = flag.Int64("chaos-seed", 42, "seed for the drill's kill-point randomness")
		out         = flag.String("out", "BENCH_store.json", "report path")

		// Subprocess plumbing for the chaos drill; not for direct use.
		isKillChild = flag.Bool("kill-child", false, "internal: run the chaos drill's committing child body")
		killDir     = flag.String("kill-dir", "", "internal: state directory for -kill-child")
	)
	flag.Parse()

	if *isKillChild {
		return killChild(*killDir)
	}

	sizes, err := parseSizes(*sizesSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchstore: %v\n", err)
		return 1
	}

	rep := report{
		Header:   benchenv.Capture(),
		Devices:  *devices,
		GateMS:   float64(gate.Milliseconds()),
		Monotone: true,
		Note: "Cold-start WAL replay (store.Inspect: snapshot load + segmented replay + merge), fastest of -iters runs. " +
			"Replay time is unlock downtime: wearlockd answers 503 until recovery completes. " +
			"commit_throughput: real-fsync commits/sec from -writers concurrent writers, group committer vs CommitMaxBatch=1 baseline. " +
			"parallel_replay: checkpoint-skipping segmented replay vs serial full decode of identical bytes, states bit-compared. " +
			"kill_chaos (-check): SIGKILL cycles over tiny segments; every acked commit must survive, counters never regress.",
	}

	for _, n := range sizes {
		dir, err := os.MkdirTemp("", "benchstore-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchstore: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		walBytes, segments, err := populate(dir, n, *devices, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchstore: populate %d: %v\n", n, err)
			return 1
		}
		d, err := measure(dir, *iters)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchstore: replay %d: %v\n", n, err)
			return 1
		}
		ms := float64(d) / float64(time.Millisecond)
		rep.Entries = append(rep.Entries, entry{
			Records:      n,
			WALBytes:     walBytes,
			Segments:     segments,
			ReplayMS:     ms,
			RecordsPerMS: float64(n) / ms,
			Iters:        *iters,
		})
		fmt.Printf("%7d records  %7.1f KiB WAL (%d segments)  replay %8.3f ms  (%.0f records/ms)\n",
			n, float64(walBytes)/1024, segments, ms, float64(n)/ms)
	}

	// Monotone scaling: more records must not replay meaningfully faster.
	// The 0.5 factor absorbs timer and cache noise on small logs without
	// letting a genuine inversion (e.g. replay silently skipping records)
	// slip through.
	for i := 1; i < len(rep.Entries); i++ {
		prev, cur := rep.Entries[i-1], rep.Entries[i]
		if cur.ReplayMS < 0.5*prev.ReplayMS {
			rep.Monotone = false
			fmt.Fprintf(os.Stderr, "benchstore: non-monotone: %d records replayed in %.3fms but %d records in %.3fms\n",
				prev.Records, prev.ReplayMS, cur.Records, cur.ReplayMS)
		}
	}
	last := rep.Entries[len(rep.Entries)-1]
	rep.GatePass = last.ReplayMS <= rep.GateMS
	if !rep.GatePass {
		fmt.Fprintf(os.Stderr, "benchstore: gate failed: %d-record replay took %.1fms (limit %.0fms)\n",
			last.Records, last.ReplayMS, rep.GateMS)
	}

	rep.Commit, err = benchCommit(*writers, *commits, *devices, *commitGate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchstore: commit bench: %v\n", err)
		return 1
	}
	fmt.Printf("commit throughput: baseline %.0f/s, group %.0f/s (mean batch %.1f) — %.1fx (gate %.0fx) %s\n",
		rep.Commit.BaselinePerSec, rep.Commit.GroupPerSec, rep.Commit.MeanBatch,
		rep.Commit.Speedup, rep.Commit.GateMin, passStr(rep.Commit.Pass))

	rep.Replay, err = benchReplay(*replayRecs, *devices, *replayWkrs, *iters, *replayGate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchstore: replay bench: %v\n", err)
		return 1
	}
	fmt.Printf("parallel replay:   serial %.1fms, parallel %.1fms over %d segments — %.1fx (gate %.0fx), bit-identical %v %s\n",
		rep.Replay.SerialMS, rep.Replay.ParallelMS, rep.Replay.Segments,
		rep.Replay.Speedup, rep.Replay.GateMin, rep.Replay.Identical, passStr(rep.Replay.Pass))

	if *check {
		rep.Chaos, err = runKillChaos(*chaosCycles, *chaosSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchstore: chaos drill: %v\n", err)
			return 1
		}
		fmt.Printf("kill chaos:        %d cycles, %d acked commits, %d lost-or-replayed, %d lost devices, %d regressions, %d corruptions %s\n",
			rep.Chaos.Cycles, rep.Chaos.AckedTotal, rep.Chaos.LostOrReplayed, rep.Chaos.LostDevices,
			rep.Chaos.CounterRegressions, rep.Chaos.Corruptions, passStr(rep.Chaos.Pass))
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchstore: %v\n", err)
		return 1
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchstore: %v\n", err)
		return 1
	}
	ok := rep.GatePass && rep.Monotone && rep.Commit.Pass && rep.Replay.Pass &&
		(rep.Chaos == nil || rep.Chaos.Pass)
	fmt.Printf("gate: %d records in %.3fms (limit %.0fms) — %s; wrote %s\n",
		last.Records, last.ReplayMS, rep.GateMS, map[bool]string{true: "pass", false: "FAIL"}[ok], *out)
	if !ok {
		return 1
	}
	return 0
}

func passStr(ok bool) string {
	return map[bool]string{true: "pass", false: "FAIL"}[ok]
}
