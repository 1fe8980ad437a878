package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/rig"
)

// testBenchConfig keeps integration runs quick: small fleet, light
// pacing so sessions still overlap the handoff window.
func testBenchConfig() benchConfig {
	return benchConfig{Devices: 16, Workers: 2, Queue: 16, Pace: 0.1, Seed: 42}
}

// TestClusterUnlockThroughGateway boots a 2-shard cluster and checks the
// client-facing contract: unlocks succeed, session IDs come back
// namespaced and resolve through GET /v1/sessions/{id}, both shards see
// traffic, and the aggregated /metrics carries shard-labeled samples
// plus the gateway build info.
func TestClusterUnlockThroughGateway(t *testing.T) {
	r, err := rig.Cluster(shardConfigs(2, testBenchConfig(), ""), cluster.GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	client := &http.Client{Timeout: 60 * time.Second}

	shardsSeen := map[string]bool{}
	for i := 0; i < 8; i++ {
		view, status, _, err := rig.Unlock(client, r.URL, rig.Request{Scenario: "default"})
		if err != nil || status != http.StatusOK {
			t.Fatalf("unlock %d answered %d: %v", i, status, err)
		}
		shard, _, ok := strings.Cut(view.ID, ".")
		if !ok {
			t.Fatalf("session ID %q not cluster-namespaced", view.ID)
		}
		shardsSeen[shard] = true

		poll, err := client.Get(r.URL + "/v1/sessions/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		pollBody, _ := io.ReadAll(poll.Body)
		poll.Body.Close()
		if poll.StatusCode != http.StatusOK {
			t.Fatalf("session poll answered %d: %s", poll.StatusCode, pollBody)
		}
	}
	if len(shardsSeen) != 2 {
		t.Errorf("round-robin reached shards %v, want both", shardsSeen)
	}

	ready, err := client.Get(r.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusOK {
		t.Errorf("/readyz answered %d", ready.StatusCode)
	}

	metrics, err := client.Get(r.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mBody, _ := io.ReadAll(metrics.Body)
	metrics.Body.Close()
	for _, want := range []string{
		"wearlock_gateway_build_info", "wearlock_gateway_proxied_total",
		`wearlockd_build_info{shard="s0"`, `shard="s1"`,
	} {
		if !strings.Contains(string(mBody), want) {
			t.Errorf("aggregated metrics missing %q", want)
		}
	}
}

// TestClusterHandoffUnderLoad is the race-enabled chaos drill: a third
// shard joins a 2-shard durable cluster while closed-loop clients hammer
// the gateway. The handoff must move a range, the shared safety oracle
// must pass on the per-device maximum across shards (no lost device, no
// key change, no HOTP counter regression, no device unlocking more often
// than its counter advanced), and no request may be dropped without a
// retryable answer.
func TestClusterHandoffUnderLoad(t *testing.T) {
	cfg := testBenchConfig()
	stateDir := t.TempDir()
	r, err := rig.Cluster(shardConfigs(2, cfg, stateDir), cluster.GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	before := r.State()
	stop := make(chan struct{})
	lc, wg := driveLoad(r.URL, 6, stop)
	time.Sleep(400 * time.Millisecond)

	newShard, err := r.Boot(shardConfig(cfg, "s2", stateDir))
	if err != nil {
		t.Fatal(err)
	}
	handoffs, err := joinShard(r.URL, newShard.Shard())
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, h := range handoffs {
		moved += len(h.Devices)
	}
	if moved == 0 {
		t.Error("join moved no devices")
	}

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	if v := rig.Oracle(before, lc.unlockedByDevice, r.State()); !v.OK() {
		t.Errorf("safety oracle across handoff: %q", v.Failures)
	}
	if dropped := lc.dropped.Load(); dropped != 0 {
		t.Errorf("%d requests dropped without a retryable answer", dropped)
	}
	if lc.requests.Load() == 0 {
		t.Error("drill drove no load")
	}

	// Post-handoff the new shard serves its range: the topology reports
	// three shards and /readyz stays green.
	client := &http.Client{Timeout: 60 * time.Second}
	top, err := client.Get(r.URL + "/cluster/v1/topology")
	if err != nil {
		t.Fatal(err)
	}
	topBody, _ := io.ReadAll(top.Body)
	top.Body.Close()
	var topology struct {
		Shards []struct {
			Name  string `json:"name"`
			Owned int    `json:"owned"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(topBody, &topology); err != nil {
		t.Fatal(err)
	}
	if len(topology.Shards) != 3 {
		t.Fatalf("topology has %d shards after join, want 3: %s", len(topology.Shards), topBody)
	}
	for _, sh := range topology.Shards {
		if sh.Owned == 0 {
			t.Errorf("shard %s owns no devices after rebalance", sh.Name)
		}
	}
}

// TestClusterEphemeralPorts covers the -listen :0 discovery path end to
// end at the package level: every rig listener binds :0 and the cluster
// still assembles, proving nothing assumes fixed ports.
func TestClusterEphemeralPorts(t *testing.T) {
	r, err := rig.Cluster(shardConfigs(4, testBenchConfig(), ""), cluster.GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	top := r.Gateway.Topology()
	seen := map[string]bool{}
	for _, sh := range top.Shards {
		if !strings.HasPrefix(sh.BaseURL, "http://127.0.0.1:") {
			t.Errorf("shard %s has unexpected base URL %s", sh.Name, sh.BaseURL)
		}
		if seen[sh.BaseURL] {
			t.Errorf("duplicate shard address %s", sh.BaseURL)
		}
		seen[sh.BaseURL] = true
	}
	if len(seen) != 4 {
		t.Errorf("%d distinct shard addresses, want 4", len(seen))
	}
	if fmt.Sprint(top.Devices) != "16" {
		t.Errorf("topology devices = %d, want 16", top.Devices)
	}
}
