package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"wearlock/internal/audio"
	"wearlock/internal/core"
	"wearlock/internal/modem"
	"wearlock/internal/otp"
	"wearlock/internal/scenario/catalog"
	"wearlock/internal/sim"
)

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 5

// timedPath wraps the honest acoustic path and times every Transmit.
// When traced it records a span per call, the allocation the call made,
// and the recording, which the modem replay demodulates again.
type timedPath struct {
	core.AcousticPath
	tr              *tracer
	session, parent int64

	calls           int
	busy            time.Duration
	allocB, mallocs uint64
	recorded        []*audio.Buffer
}

func (p *timedPath) Transmit(frame *audio.Buffer, volumeSPL float64) (*audio.Buffer, error) {
	var before runtime.MemStats
	if p.tr != nil {
		runtime.ReadMemStats(&before)
	}
	id := p.tr.id()
	start := time.Now()
	rec, err := p.AcousticPath.Transmit(frame, volumeSPL)
	end := time.Now()
	p.calls++
	p.busy += end.Sub(start)
	if p.tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		p.allocB += after.TotalAlloc - before.TotalAlloc
		p.mallocs += after.Mallocs - before.Mallocs
		p.tr.add(id, "acoustic.transmit", p.session, p.parent, start, end)
		p.recorded = append(p.recorded, rec)
	}
	return rec, err
}

// pair is one paired phone and watch plus the random stream its acoustic
// links draw from.
type pair struct {
	sys  *core.System
	link *rand.Rand
}

// newFleet pairs n devices; the same seed gives the same keys and streams.
func newFleet(cfg core.Config, n int, seed int64) ([]pair, error) {
	fleet := make([]pair, n)
	for i := range fleet {
		sys, err := core.NewSystem(cfg, rand.New(rand.NewSource(sim.SeedFor(seed, 1, int64(i)))))
		if err != nil {
			return nil, fmt.Errorf("device %d: %w", i, err)
		}
		fleet[i] = pair{sys: sys, link: rand.New(rand.NewSource(sim.SeedFor(seed, 2, int64(i))))}
	}
	return fleet, nil
}

// session runs one unlock the way System.UnlockCtx does, over a timed
// path, and clears a lockout the way the daemon does.
func (p pair) session(sc core.Scenario, path *timedPath) (*core.Result, error) {
	cfg := p.sys.Config()
	link, err := sc.AcousticLink(cfg.Band, modem.DefaultConfig(cfg.Band, modem.QPSK).SampleRate, p.link)
	if err != nil {
		return nil, err
	}
	path.AcousticPath = core.NewLinkPath(link)
	res, err := p.sys.UnlockVia(sc, path)
	if err == nil && res.Outcome == core.OutcomeLockedOut {
		p.sys.ManualUnlock()
	}
	return res, err
}

// coreSetup pairs a fleet like the one every round starts from, and runs
// one warm-up session per scenario on a separate device so lazy set-up is
// done before timing.
func coreSetup(w workloadSpec, seed int64, scenarios map[string]core.Scenario) error {
	cfg := core.DefaultConfig()
	if _, err := newFleet(cfg, w.Fleet, seed); err != nil {
		return err
	}
	warm, err := newFleet(cfg, 1, seed^0x77)
	if err != nil {
		return err
	}
	for _, name := range sortedKeys(w.Mix) {
		if _, err := warm[0].session(scenarios[name], &timedPath{}); err != nil {
			return fmt.Errorf("warm-up %s: %w", name, err)
		}
	}
	return nil
}

// runCoreMix calls core.System.UnlockVia serially. The measured work is a
// round: a freshly paired fleet running one fixed, seeded list of
// sessions. Rounds repeat until the time is up, so every round must give
// the same outcomes, and the outcome ratios do not depend on how many
// rounds fit. Rate and latency percentiles are taken per round and
// reported as the median of the half of the rounds the host stole the
// least CPU time from.
func runCoreMix(w workloadSpec, seed int64, seconds float64, tr *tracer, _ string) (*runResult, error) {
	if w.Fleet < 1 || w.RoundBlocks < 1 {
		return nil, fmt.Errorf("core-mix needs a fleet and round_blocks")
	}
	scenarios := catalog.ServiceScenarios()
	for name := range w.Mix {
		if _, ok := scenarios[name]; !ok {
			return nil, fmt.Errorf("mix names unknown scenario %q", name)
		}
	}
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		if err := coreSetup(w, seed, scenarios); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	seq := newMixSeq(w.Mix, w.RoundBlocks, seed)
	roundLen := len(seq.block)
	cfg := core.DefaultConfig()
	r := &runResult{layers: map[string]float64{}, trace: tr}
	var (
		latMS                      []float64
		delay                      time.Duration // summed in integer nanoseconds, so the mean repeats exactly
		completed                  int
		rates, p50s, p90s, steals  []float64
		busy, transmit             time.Duration
		allocB, mallocs            uint64
		txAllocB, txMallocs        uint64
		txCalls, unlocked, wanted  int
		firstHist                  map[string]int
		modemTx, modemNew, modemRx []float64
	)
	measureStart := time.Now()
	for round, last := 0, time.Duration(0); round == 0 || time.Since(measureStart)+last <= secondsDur(seconds); round++ {
		fleet, err := newFleet(cfg, w.Fleet, seed)
		if err != nil {
			return nil, err
		}
		hist := map[string]int{}
		roundLat := make([]float64, 0, roundLen)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		stolen := readSteal()
		roundStart := time.Now()
		for i := 0; i < roundLen; i++ {
			name := seq.at(i)
			sc := scenarios[name]
			dev := fleet[i%len(fleet)]
			sid := int64(round*roundLen + i + 1)
			path := &timedPath{tr: tr, session: sid, parent: tr.id()}
			var before runtime.MemStats
			if tr != nil {
				runtime.ReadMemStats(&before)
			}
			start := time.Now()
			res, err := dev.session(sc, path)
			end := time.Now()
			r.attempted++
			busy += end.Sub(start)
			roundLat = append(roundLat, ms(end.Sub(start)))
			if tr != nil {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				allocB += after.TotalAlloc - before.TotalAlloc
				mallocs += after.Mallocs - before.Mallocs
				tr.add(path.parent, "core.session", sid, 0, start, end)
			}
			txCalls += path.calls
			transmit += path.busy
			txAllocB += path.allocB
			txMallocs += path.mallocs
			if err != nil {
				r.failed++
				hist["error"]++
				continue
			}
			hist[res.Outcome.String()]++
			completed++
			delay += res.Timeline.Total()
			if res.Unlocked {
				unlocked++
			}
			if res.Unlocked != w.refusedByName[name] {
				wanted++
			}
			if tr != nil {
				tx, nd, rx, err := replayModem(cfg, res, path, sid, tr)
				if err != nil {
					return nil, err
				}
				if nd > 0 {
					modemTx, modemNew, modemRx = append(modemTx, tx), append(modemNew, nd), append(modemRx, rx)
				}
			}
		}
		last = time.Since(roundStart)
		steals = append(steals, stolen.shareSince())
		latMS = append(latMS, roundLat...)
		rates = append(rates, float64(roundLen-hist["error"])/last.Seconds())
		p50s = append(p50s, percentile(roundLat, 0.5))
		p90s = append(p90s, percentile(roundLat, 0.9))
		runtime.ReadMemStats(&ms1)
		if tr == nil {
			allocB += ms1.TotalAlloc - ms0.TotalAlloc
		}
		if firstHist == nil {
			firstHist = hist
		} else if !sameHist(firstHist, hist) {
			r.fail("round %d outcomes %v differ from round 0 %v", round, hist, firstHist)
		}
	}

	n := float64(r.attempted)
	done := float64(completed)
	r.samples = len(latMS)
	r.p99 = percentile(latMS, 0.99)
	keep := leastStolen(steals)
	r.steal = stealReport{Intervals: steals, Kept: keep}
	r.e2e = map[string]float64{
		"setup_s":               median(setups),
		"sessions_per_s":        median(pick(rates, keep)),
		"latency_p50_ms":        median(pick(p50s, keep)),
		"latency_p90_ms":        median(pick(p90s, keep)),
		"success_frac":          1 - float64(r.failed)/n,
		"intended_outcome_frac": ratio(float64(wanted), done),
		"unlock_delay_mean_ms":  ratio(float64(delay), done) / 1e6,
		"alloc_mb_per_session":  float64(allocB) / 1e6 / n,
	}
	if tr != nil {
		self := tr.selfTimes()["core.session"]
		r.layers["acoustic.transmit_ms"] = ms(transmit) / n
		r.layers["acoustic.transmit_calls"] = float64(txCalls) / n
		r.layers["acoustic.share"] = transmit.Seconds() / busy.Seconds()
		r.layers["acoustic.alloc_mb"] = float64(txAllocB) / 1e6 / n
		r.layers["modem.tx_us"] = mean(modemTx) * 1e3
		r.layers["modem.new_demodulator_us"] = mean(modemNew) * 1e3
		r.layers["modem.rx_ms"] = mean(modemRx)
		r.layers["core.self_ms"] = self.SelfMS / n
		r.layers["core.alloc_mb"] = float64(allocB-txAllocB) / 1e6 / n
		r.layers["core.mallocs"] = float64(mallocs-txMallocs) / n
		r.layers["core.unlock_frac"] = ratio(float64(unlocked), done)
	}
	if r.attempted > 0 && txCalls == 0 {
		r.fail("core-mix made no acoustic transmissions")
	}
	return r, nil
}

// replayModem times the modem calls of a session's token phase on the
// frames and recordings its path captured: Modulate, NewDemodulator and
// Demodulate, in milliseconds. Sessions that sent no token report 0.
func replayModem(cfg core.Config, res *core.Result, path *timedPath, sid int64, tr *tracer) (tx, newDemod, rx float64, err error) {
	if res.Mode == 0 || len(path.recorded) < 2 {
		return 0, 0, 0, nil
	}
	mcfg := modem.DefaultConfig(cfg.Band, res.Mode)
	if len(res.DataChannels) > 0 {
		if mcfg, err = modem.ApplySelection(mcfg, res.DataChannels); err != nil {
			return 0, 0, 0, fmt.Errorf("modem replay: %w", err)
		}
	}
	coded, err := modem.EncodeRepetition(otp.TokenBits(0x2b5f0c1d), cfg.Repetition)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("modem replay: %w", err)
	}
	mod, err := modem.NewModulator(mcfg)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("modem replay: %w", err)
	}
	timed := func(name string, call func() error) (float64, error) {
		start := time.Now()
		err := call()
		end := time.Now()
		tr.add(tr.id(), name, sid, 0, start, end)
		return ms(end.Sub(start)), err
	}
	if tx, err = timed("modem.modulate", func() error { _, err := mod.Modulate(coded); return err }); err != nil {
		return 0, 0, 0, fmt.Errorf("modem replay: %w", err)
	}
	var demod *modem.Demodulator
	if newDemod, err = timed("modem.new_demodulator", func() (err error) { demod, err = modem.NewDemodulator(mcfg); return err }); err != nil {
		return 0, 0, 0, fmt.Errorf("modem replay: %w", err)
	}
	// A recording the session could not decode fails here too; its time
	// still counts.
	rx, _ = timed("modem.demodulate", func() error { _, err := demod.Demodulate(path.recorded[1], len(coded)); return err })
	return tx, newDemod, rx, nil
}

func sameHist(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
