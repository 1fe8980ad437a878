package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/service"
	"wearlock/internal/sim"
)

// stackSetupReps is how often a stack run boots the stack; setup_s is the
// median, and the last boot serves the load.
const stackSetupReps = 9

// stack is a gateway in front of one durable primary wearlockd, which
// replicates synchronously to a durable warm standby, all over loopback
// HTTP in this process.
type stack struct {
	dir               string
	primary, follower *service.Service
	gw                *cluster.Gateway
	base              string
	devices           int
	front             *http.Server // the gateway's
	servers           []*http.Server
	serving           sync.WaitGroup
}

func bootStack(scratch string, seed int64) (_ *stack, err error) {
	dir, err := os.MkdirTemp(scratch, "stack-*")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	boot := func(sub string, follow bool) (*service.Service, string, error) {
		cfg := service.DefaultConfig()
		cfg.Seed = sim.SeedFor(seed, 3)
		cfg.ShardID = "s0"
		cfg.StateDir = filepath.Join(dir, sub)
		cfg.Follow = follow
		s.devices = cfg.Devices
		svc, err := service.New(cfg)
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", sub, err)
		}
		if err := svc.WaitReady(ctx); err != nil {
			return svc, "", fmt.Errorf("%s recovery: %w", sub, err)
		}
		_, url, err := s.serve(svc.Handler())
		return svc, url, err
	}
	var primaryURL, followerURL string
	if s.primary, primaryURL, err = boot("primary", false); err != nil {
		return nil, err
	}
	if s.follower, followerURL, err = boot("standby", true); err != nil {
		return nil, err
	}
	if err := s.follower.FollowPrimary(ctx, primaryURL, followerURL); err != nil {
		return nil, err
	}
	for !s.primary.ReplicaAttached() {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("standby never attached: %+v", s.primary.ReplicaStatus())
		}
		time.Sleep(time.Millisecond)
	}
	s.gw, err = cluster.NewGateway(cluster.GatewayConfig{
		Shards:       []cluster.ShardConfig{{Name: "s0", BaseURL: primaryURL}},
		TotalDevices: s.devices,
	})
	if err != nil {
		return nil, err
	}
	if err := s.gw.Register(ctx); err != nil {
		return nil, fmt.Errorf("gateway register: %w", err)
	}
	s.front, s.base, err = s.serve(s.gw.Handler())
	return s, err
}

func (s *stack) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = srv.Serve(ln)
	}()
	return srv, "http://" + ln.Addr().String(), nil
}

// close stops the gateway first, then the primary while its standby can
// still take the final shipments, then the standby, and removes the state.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.front != nil {
		_ = s.front.Close()
	}
	for _, svc := range []*service.Service{s.primary, s.follower} {
		if svc != nil {
			_ = svc.Shutdown(ctx)
		}
	}
	for _, srv := range s.servers {
		_ = srv.Close()
	}
	s.serving.Wait()
	_ = os.RemoveAll(s.dir)
}

// view is the part of the daemon's session view the benchmark reads.
type view struct {
	State         string  `json:"state"`
	Outcome       string  `json:"outcome"`
	Unlocked      bool    `json:"unlocked"`
	UnlockDelayMS float64 `json:"unlock_delay_ms"`
}

// call is one request's fate as the client saw it.
type call struct {
	scenario string
	ok       bool   // HTTP 200 and a finished session
	outcome  string // session outcome, "error" for a failed session, "" when none ran
	unlocked bool
	delayMS  float64
	sent     time.Time
	done     time.Time
}

// client drives the gateway with at most callers connections.
type client struct {
	http *http.Client
	base string
	seq  *mixSeq
	devs int
}

func newClient(base string, callers, devices int, seq *mixSeq) *client {
	tr := &http.Transport{MaxConnsPerHost: callers, MaxIdleConnsPerHost: callers, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base, seq: seq, devs: devices}
}

// unlock sends request i: the i-th scenario of the mix, pinned to device
// i mod fleet so the same seed sends the same requests.
func (c *client) unlock(i int) call {
	cl := call{scenario: c.seq.at(i)}
	body, _ := json.Marshal(map[string]any{"scenario": cl.scenario, "device": i % c.devs})
	cl.sent = time.Now()
	resp, err := c.http.Post(c.base+"/v1/unlock", "application/json", bytes.NewReader(body))
	if err != nil {
		cl.done = time.Now()
		return cl
	}
	defer resp.Body.Close()
	var v view
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&v)
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	cl.done = time.Now()
	if resp.StatusCode != http.StatusOK || err != nil {
		return cl
	}
	switch v.State {
	case "done":
		cl.ok, cl.outcome, cl.unlocked, cl.delayMS = true, v.Outcome, v.Unlocked, v.UnlockDelayMS
	case "failed":
		cl.outcome = "error"
	}
	return cl
}

// openResult is the open-loop phase's timing.
type openResult struct {
	calls                []call
	latMS, lagMS, waitMS []float64
}

// openLoop sends Poisson arrivals at rate per second for dur, each timed
// from when it was due, over callers connections. Requests are numbered
// from first.
func openLoop(c *client, tr *tracer, callers int, rate float64, dur time.Duration, seed int64, first int) openResult {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	for t := time.Duration(rng.ExpFloat64() / rate * float64(time.Second)); t < dur; t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second)) {
		due = append(due, t)
	}
	type job struct {
		i               int
		due, dispatched time.Time
	}
	res := openResult{
		calls: make([]call, len(due)), latMS: make([]float64, len(due)),
		lagMS: make([]float64, len(due)), waitMS: make([]float64, len(due)),
	}
	jobs := make(chan job, len(due)) // one slot per scheduled send: the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				picked := time.Now()
				cl := c.unlock(first + j.i)
				res.calls[j.i] = cl
				res.latMS[j.i] = ms(cl.done.Sub(j.due))
				res.waitMS[j.i] = ms(picked.Sub(j.dispatched))
				sid := int64(first + j.i + 1)
				root := tr.id()
				tr.add(tr.id(), "bench.gen_lag", sid, root, j.due, j.dispatched)
				tr.add(tr.id(), "bench.conn_wait", sid, root, j.dispatched, picked)
				tr.add(tr.id(), "cluster.call", sid, root, cl.sent, cl.done)
				tr.add(root, "bench.request", sid, 0, j.due, cl.done)
			}
		}()
	}
	start := time.Now()
	for i, d := range due {
		at := start.Add(d)
		time.Sleep(time.Until(at))
		now := time.Now()
		res.lagMS[i] = ms(now.Sub(at))
		jobs <- job{i: i, due: at, dispatched: now}
	}
	close(jobs)
	wg.Wait()
	return res
}

// closedLoop runs callers back-to-back callers for dur; it returns the
// calls and the wall time until the last one finished.
func closedLoop(c *client, tr *tracer, callers int, dur time.Duration, first int) ([]call, time.Duration) {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		calls []call
		wg    sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := first + int(next.Add(1)-1)
				cl := c.unlock(i)
				root := tr.id()
				tr.add(tr.id(), "cluster.call", int64(i+1), root, cl.sent, cl.done)
				tr.add(root, "bench.request", int64(i+1), 0, cl.sent, cl.done)
				mu.Lock()
				calls = append(calls, cl)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return calls, time.Since(start)
}

// stackSegments is how many open-loop/closed-loop segment pairs a run
// alternates through.
const stackSegments = 10

// registries snapshots the three processes' metric registries.
type registries struct{ primary, follower, gateway map[string]float64 }

func (s *stack) scrape() registries {
	return registries{scrape(s.primary.Registry()), scrape(s.follower.Registry()), scrape(s.gw.Registry())}
}

// sampleQueue records the primary's largest wearlockd_queue_depth until
// stop is closed.
func sampleQueue(s *stack, stop <-chan struct{}, maxDepth *float64, done *sync.WaitGroup) {
	defer done.Done()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if d := scrape(s.primary.Registry())["wearlockd_queue_depth"]; d > *maxDepth {
				*maxDepth = d
			}
		}
	}
}

// runStack boots the stack, alternates open-loop and closed-loop capacity
// phases, and checks the daemons' registries against what the client saw.
func runStack(w workloadSpec, seed int64, seconds float64, tr *tracer, scratch string) (*runResult, error) {
	if w.OpenRatePerS <= 0 || w.OpenShare <= 0 || w.OpenShare >= 1 {
		return nil, fmt.Errorf("stack workload needs open_rate_per_s and 0 < open_share < 1")
	}
	var setups []float64
	var s *stack
	for rep := 0; rep < stackSetupReps; rep++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = bootStack(scratch, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()

	seq := newMixSeq(w.Mix, 1, seed)
	c := newClient(s.base, w.Callers, s.devices, seq)
	defer c.http.CloseIdleConnections()
	// Warm-up: connections open and the daemon's first sessions run
	// before timing. It is not measured, but the output checks count it.
	var all []call
	for i := 0; i < 4*w.Callers; i++ {
		all = append(all, c.unlock(i))
	}
	first := len(all)

	r := &runResult{layers: map[string]float64{}, trace: tr}
	var (
		stop     = make(chan struct{})
		sampling sync.WaitGroup
		maxDepth float64
		ms0, ms1 runtime.MemStats
	)
	if tr != nil {
		sampling.Add(1)
		go sampleQueue(s, stop, &maxDepth, &sampling)
	}
	before := s.scrape()
	runtime.ReadMemStats(&ms0)
	// The phases alternate in stackSegments segments, so a burst of load
	// from outside the benchmark lands in a few segments. Only the half of
	// each phase's segments the host stole the least CPU time from count:
	// the capacity is their median, and the latency percentiles pool
	// their requests.
	var (
		measured                     []call
		segLat                       [][]float64
		openLat, lagMS, waitMS       []float64
		rates, openSteal, closeSteal []float64
	)
	segment := seconds / stackSegments
	for k := 0; k < stackSegments; k++ {
		stolen := readSteal()
		open := openLoop(c, tr, w.Callers, w.OpenRatePerS, secondsDur(segment*w.OpenShare), sim.SeedFor(seed, 4, int64(k)), first+len(measured))
		openSteal = append(openSteal, stolen.shareSince())
		measured = append(measured, open.calls...)
		stolen = readSteal()
		closed, wall := closedLoop(c, tr, w.Callers, secondsDur(segment*(1-w.OpenShare)), first+len(measured))
		closeSteal = append(closeSteal, stolen.shareSince())
		measured = append(measured, closed...)
		segLat = append(segLat, open.latMS)
		openLat, lagMS, waitMS = append(openLat, open.latMS...), append(lagMS, open.lagMS...), append(waitMS, open.waitMS...)
		completed := 0
		for _, cl := range closed {
			if cl.ok {
				completed++
			}
		}
		rates = append(rates, float64(completed)/wall.Seconds())
	}
	runtime.ReadMemStats(&ms1)
	after := s.scrape()
	close(stop)
	sampling.Wait()

	all = append(all, measured...)
	var (
		delayMS          []float64
		rttMS            float64
		wanted, unlocked int
	)
	for _, cl := range measured {
		r.attempted++
		rttMS += ms(cl.done.Sub(cl.sent))
		if !cl.ok {
			r.failed++
			continue
		}
		delayMS = append(delayMS, cl.delayMS)
		if cl.unlocked {
			unlocked++
		}
		if cl.unlocked != w.refusedByName[cl.scenario] {
			wanted++
		}
	}
	n, done := float64(r.attempted), float64(len(delayMS))
	r.samples = len(openLat)
	r.p99 = percentile(openLat, 0.99)
	keepOpen, keepClosed := leastStolen(openSteal), leastStolen(closeSteal)
	var keptLat []float64
	for _, k := range keepOpen {
		keptLat = append(keptLat, segLat[k]...)
	}
	r.steal = stealReport{Intervals: append(openSteal, closeSteal...), Kept: keepOpen}
	for _, k := range keepClosed {
		r.steal.Kept = append(r.steal.Kept, stackSegments+k)
	}
	r.e2e = map[string]float64{
		"setup_s":               median(setups),
		"sessions_per_s":        median(pick(rates, keepClosed)),
		"latency_p50_ms":        percentile(keptLat, 0.5),
		"latency_p90_ms":        percentile(keptLat, 0.9),
		"success_frac":          1 - float64(r.failed)/n,
		"intended_outcome_frac": ratio(float64(wanted), done),
		"unlock_delay_mean_ms":  mean(delayMS),
		"alloc_mb_per_session":  float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / done,
	}

	if tr != nil {
		diff := func(before, after map[string]float64) func(string) float64 {
			return func(name string) float64 { return sum(after, name) - sum(before, name) }
		}
		prim, fol, gw := diff(before.primary, after.primary), diff(before.follower, after.follower), diff(before.gateway, after.gateway)
		sessions := prim("wearlockd_sessions_total")
		wallMS := 1e3 * ratio(prim("wearlockd_session_wall_seconds_sum"), prim("wearlockd_session_wall_seconds_count"))
		commitMS := 1e3 * ratio(prim("wearlockd_commit_seconds_sum"), prim("wearlockd_commit_seconds_count"))
		transmits := prim("wearlockd_ebn0_db_count") + prim("wearlockd_ber_count")
		r.layers["acoustic.transmit_calls"] = ratio(transmits, sessions)
		r.layers["core.unlock_frac"] = ratio(float64(unlocked), done)
		r.layers["service.wall_ms"] = wallMS
		r.layers["service.queue_depth_max"] = maxDepth
		r.layers["service.rejected"] = prim("wearlockd_rejected_total")
		r.layers["service.non_commit_ms"] = wallMS - commitMS
		r.layers["store.commit_ms"] = commitMS
		r.layers["store.batch_size"] = ratio(prim("wearlockd_wal_batch_size_sum"), prim("wearlockd_wal_batch_size_count"))
		r.layers["store.records_per_session"] = ratio(prim("wearlockd_wal_records_total"), sessions)
		r.layers["store.fsyncs_per_session"] = ratio(prim("wearlockd_wal_batch_size_count"), sessions)
		r.layers["replica.applied_batches_per_session"] = ratio(fol("wearlockd_replica_applied_batches_total"), sessions)
		r.layers["replica.detaches"] = prim("wearlockd_replica_detaches_total") + fol("wearlockd_replica_detaches_total")
		r.layers["cluster.hop_ms"] = rttMS/n - wallMS
		r.layers["cluster.shard_errors"] = gw("wearlock_gateway_shard_errors_total")
		r.layers["cluster.reroutes"] = gw("wearlock_gateway_reroutes_total")
		r.layers["bench.gen_lag_p99_ms"] = percentile(lagMS, 0.99)
		r.layers["bench.conn_wait_p99_ms"] = percentile(waitMS, 0.99)
	}
	checkStack(r, s, all, after)
	return r, nil
}

// checkStack holds the daemons to what the client observed over the
// stack's whole life, warm-up included.
func checkStack(r *runResult, s *stack, all []call, reg registries) {
	seen := map[string]float64{}
	completed := 0
	for _, cl := range all {
		if cl.outcome != "" {
			seen[cl.outcome]++
			completed++
		}
	}
	daemon := labelled(reg.primary, "wearlockd_sessions_total", "outcome")
	for outcome := range union(seen, daemon) {
		if seen[outcome] != daemon[outcome] {
			r.fail("outcome %s: client saw %v, daemon counted %v", outcome, seen[outcome], daemon[outcome])
		}
	}
	if recs := sum(reg.primary, "wearlockd_wal_records_total"); recs < float64(completed) {
		r.fail("%v WAL records for %d sessions", recs, completed)
	}
	if v := sum(reg.primary, "wearlockd_store_corruptions_total"); v != 0 {
		r.fail("%v store corruptions", v)
	}
	if v := sum(reg.primary, "wearlockd_fsync_disabled"); v != 0 {
		r.fail("fsync disabled on the primary")
	}
	if !s.primary.ReplicaAttached() {
		r.fail("standby detached: %+v", s.primary.ReplicaStatus())
	}
	if v := sum(reg.primary, "wearlockd_replica_detaches_total") + sum(reg.follower, "wearlockd_replica_detaches_total"); v != 0 {
		r.fail("%v standby detaches", v)
	}
	if v := sum(reg.gateway, "wearlock_gateway_shard_errors_total"); v != 0 {
		r.fail("%v gateway shard errors", v)
	}
}

func union(a, b map[string]float64) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}
