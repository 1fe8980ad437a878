package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/rig"
)

// adoptFaultProxy fronts one shard and fails the Nth Adopt import with
// an injected 500, firing onFail first. Everything else — wire control
// traffic and proxied client traffic alike — forwards verbatim, so the
// proxied shard behaves normally before and after the fault.
type adoptFaultProxy struct {
	backend string
	failNth int32
	adopts  atomic.Int32
	onFail  func()
}

func (p *adoptFaultProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	if m, derr := cluster.Decode(body); derr == nil {
		if req, ok := m.Payload.(*cluster.ImportRangeRequest); ok && req.Adopt {
			if p.adopts.Add(1) == p.failNth {
				if p.onFail != nil {
					p.onFail()
				}
				w.WriteHeader(http.StatusInternalServerError)
				_, _ = io.WriteString(w, "injected adopt fault")
				return
			}
		}
	}
	req, err := http.NewRequest(r.Method, p.backend+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(out)
}

// TestClusterJoinAbortKeepsCommittedMoves is the regression drill for
// the partial-join abort contract: a join whose second move fails after
// the first committed must (a) keep the committed range routed to the
// new shard — returning it to a source whose durable counters predate
// the traffic the target served would be an HOTP counter regression and
// a replay window — (b) unfence the failed move's range on its source
// even though the triggering context was canceled mid-abort, and (c) be
// resumable by re-adding the same shard.
func TestClusterJoinAbortKeepsCommittedMoves(t *testing.T) {
	cfg := testBenchConfig()
	stateDir := t.TempDir()

	// MoveChunk 2 forces a multi-move plan even on a 16-device fleet, so
	// "fail the second adopt" always lands after a committed first move.
	r, err := rig.Cluster(shardConfigs(2, cfg, stateDir), cluster.GatewayConfig{
		MoveChunk:      2,
		HandoffTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	gw := r.Gateway

	s2, err := r.Boot(shardConfig(cfg, "s2", stateDir))
	if err != nil {
		t.Fatal(err)
	}
	proxy := &adoptFaultProxy{backend: s2.URL, failNth: 2}
	proxyURL, _, err := r.Serve(proxy)
	if err != nil {
		t.Fatal(err)
	}

	client := &http.Client{Timeout: 60 * time.Second}
	var mu sync.Mutex
	unlocks := map[int]int{}
	// unlockServed retries one device until a session is served: a
	// fenced-admitted session, backpressure and a mid-handoff 503 are all
	// retryable.
	unlockServed := func(d int) error {
		deadline := time.Now().Add(30 * time.Second)
		for {
			view, status, _, err := rig.Unlock(client, r.URL, rig.Pin("default", d))
			switch {
			case err != nil:
				return fmt.Errorf("unlock device %d: %w", d, err)
			case status == http.StatusOK && !view.Fenced():
				if view.Unlocked {
					mu.Lock()
					unlocks[d]++
					mu.Unlock()
				}
				return nil
			case status != http.StatusOK && status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable:
				return fmt.Errorf("unlock device %d answered %d", d, status)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("unlock device %d still failing at deadline: %d", d, status)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	before := r.State()

	// At the injected fault the first move is committed and its override
	// routes to s2: drive traffic onto that range so the target's durable
	// counters move past the source's copies — the state a rollback to
	// the old ring would regress — then cancel the join's context so the
	// abort recovery must survive on its own.
	joinCtx, cancelJoin := context.WithCancel(context.Background())
	defer cancelJoin()
	var hookErr error
	proxy.onFail = func() {
		committed := gw.Topology().Owners["s2"]
		if len(committed) == 0 {
			hookErr = fmt.Errorf("no devices routed to s2 at fault time")
		}
		for _, d := range committed {
			if err := unlockServed(d); err != nil && hookErr == nil {
				hookErr = err
			}
		}
		cancelJoin()
	}

	reports, err := gw.AddShard(joinCtx, cluster.ShardConfig{Name: "s2", BaseURL: proxyURL})
	if err == nil {
		t.Fatal("join with an injected adopt fault unexpectedly succeeded")
	}
	if hookErr != nil {
		t.Fatalf("driving load on the committed range mid-join: %v", hookErr)
	}
	committed := map[int]bool{}
	for _, rep := range reports {
		for _, d := range rep.Devices {
			committed[d] = true
		}
	}
	if len(committed) == 0 {
		t.Fatalf("fault aborted the join before any move committed: %v", err)
	}

	// (a) The committed range stays with s2 in the post-abort topology.
	top := gw.Topology()
	if got := len(top.Owners["s2"]); got != len(committed) {
		t.Errorf("post-abort topology routes %d devices to s2, want the %d committed (owners: %v)",
			got, len(committed), top.Owners)
	}
	for _, d := range top.Owners["s2"] {
		if !committed[d] {
			t.Errorf("post-abort topology routes uncommitted device %d to s2", d)
		}
	}

	// (a+b) Every device keeps serving through the gateway: committed
	// ones from s2, the failed move's from its unfenced source. A fence
	// left behind (abort recovery dying with the canceled join context)
	// would make this loop 503 until its deadline.
	for d := 0; d < cfg.Devices; d++ {
		if err := unlockServed(d); err != nil {
			t.Fatalf("post-abort: %v", err)
		}
	}

	// (c) Re-adding the same shard resumes the remaining moves.
	if _, err := gw.AddShard(context.Background(), cluster.ShardConfig{Name: "s2", BaseURL: proxyURL}); err != nil {
		t.Fatalf("resuming aborted join: %v", err)
	}
	top = gw.Topology()
	if len(top.Shards) != 3 {
		t.Fatalf("topology has %d shards after resumed join, want 3", len(top.Shards))
	}
	for _, sh := range top.Shards {
		if sh.Owned == 0 {
			t.Errorf("shard %s owns no devices after resumed join", sh.Name)
		}
	}
	for d := 0; d < cfg.Devices; d++ {
		if err := unlockServed(d); err != nil {
			t.Fatalf("post-resume: %v", err)
		}
	}

	// Invariants across abort and resume, from the shared oracle: no
	// counter regressed, and no device unlocked more often than its
	// authoritative counter advanced (an accepted replay — exactly what
	// re-granting sources their stale pre-handoff ranges would produce).
	mu.Lock()
	defer mu.Unlock()
	if v := rig.Oracle(before, unlocks, r.State()); !v.OK() {
		t.Errorf("safety oracle across abort and resume: %q", v.Failures)
	}
}
