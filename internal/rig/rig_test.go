package rig

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/service"
)

func smallConfig(shard string) service.Config {
	cfg := service.DefaultConfig()
	cfg.Devices = 4
	cfg.Workers = 2
	cfg.ShardID = shard
	return cfg
}

// TestScrapeRejectsNon200: a failing /metrics must be an error, never an
// empty exposition that a consistency gate would read as all zeros.
func TestScrapeRejectsNon200(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "wearlockd_sessions_total 3", http.StatusInternalServerError)
	}))
	defer srv.Close()
	samples, err := Scrape(srv.Client(), srv.URL)
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("Scrape of a 500 = %v, %v; want an error naming the status", samples, err)
	}
}

// TestSingleUnlockAndScrape drives a lone daemon through the client and
// finds the sessions in its scraped outcome counters.
func TestSingleUnlockAndScrape(t *testing.T) {
	r, err := Single(smallConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	client := &http.Client{Timeout: 60 * time.Second}
	for i := 0; i < 3; i++ {
		view, status, _, err := Unlock(client, r.URL, Pin("default", i))
		if err != nil || status != http.StatusOK || view.Device != i || view.State != "done" {
			t.Fatalf("unlock %d: %+v status %d err %v", i, view, status, err)
		}
	}
	if _, status, _, _ := Unlock(client, r.URL, Request{Scenario: "no-such-scenario"}); status != http.StatusBadRequest {
		t.Errorf("unknown scenario answered %d, want 400", status)
	}
	samples, err := Scrape(client, r.URL)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range samples {
		if s.Name == "wearlockd_sessions_total" && s.Labels["outcome"] != "" {
			total += s.Value
		}
	}
	if total != 3 {
		t.Errorf("scraped %v sessions, want 3", total)
	}
}

// TestClusterBootAndState boots two shards behind a gateway and reads the
// per-device maximum back as the cluster state.
func TestClusterBootAndState(t *testing.T) {
	dir := t.TempDir()
	var cfgs []service.Config
	for _, id := range []string{"s0", "s1"} {
		cfg := smallConfig(id)
		cfg.StateDir = filepath.Join(dir, id)
		cfg.NoFsync = true
		cfgs = append(cfgs, cfg)
	}
	r, err := Cluster(cfgs, cluster.GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	before := r.State()
	client := &http.Client{Timeout: 60 * time.Second}
	acked := map[int]int{}
	for d := 0; d < 4; d++ {
		view, status, _, err := Unlock(client, r.URL, Pin("default", d))
		if err != nil || status != http.StatusOK {
			t.Fatalf("unlock device %d: status %d err %v", d, status, err)
		}
		if view.Unlocked {
			acked[d]++
		}
	}
	if top := r.Gateway.Topology(); len(top.Shards) != 2 || top.Devices != 4 {
		t.Errorf("topology %+v, want 2 shards over 4 devices", top)
	}
	if v := Oracle(before, acked, r.State()); !v.OK() {
		t.Errorf("oracle: %q", v.Failures)
	}
}

func bootPair(t *testing.T) *Rig {
	t.Helper()
	dir := t.TempDir()
	primary, standby := smallConfig("s0"), smallConfig("s0")
	primary.StateDir, standby.StateDir = filepath.Join(dir, "primary"), filepath.Join(dir, "standby")
	primary.NoFsync, standby.NoFsync = true, true
	standby.Follow = true
	r, err := Pair(primary, standby, cluster.GatewayConfig{HeartbeatMisses: 2})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPairHeartbeatLoopPromotes runs the wall-speed heartbeat loop across
// a kill; with -race it checks the loop against the test goroutine and
// that stop and Close both return once the loop has exited.
func TestPairHeartbeatLoopPromotes(t *testing.T) {
	r := bootPair(t)
	defer r.Close()
	stop := r.StartHeartbeats(time.Millisecond)
	r.KillPrimary()
	for deadline := time.Now().Add(30 * time.Second); r.Standby.ReplicaStatus().Role != "promoted"; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("standby role %q 30s after the kill, want promoted", r.Standby.ReplicaStatus().Role)
		}
	}
	stop()
	stop()
}

// TestPairFailover kills the primary, promotes the standby through two
// scripted heartbeats, and certifies the acked unlocks survived.
func TestPairFailover(t *testing.T) {
	r := bootPair(t)
	defer r.Close()
	before, _ := r.Daemons[0].StoreState()
	client := &http.Client{Timeout: 60 * time.Second}
	acked := map[int]int{}
	for d := 0; d < 4; d++ {
		if view, status, _, err := Unlock(client, r.URL, Pin("default", d)); err == nil && status == http.StatusOK && view.Unlocked {
			acked[d]++
		}
	}
	r.KillPrimary()
	r.Heartbeat()
	r.Heartbeat()
	if role := r.Standby.ReplicaStatus().Role; role != "promoted" {
		t.Fatalf("standby role %q after two missed heartbeats, want promoted", role)
	}
	if got := r.Gateway.Topology().Shards[0].BaseURL; got != r.Standby.URL {
		t.Errorf("gateway routes s0 to %s, want the promoted standby %s", got, r.Standby.URL)
	}
	after, ok := r.Standby.StoreState()
	if !ok {
		t.Fatal("promoted standby has no store state")
	}
	if v := Oracle(before, acked, after); !v.OK() {
		t.Errorf("oracle: %q", v.Failures)
	}
	if _, status, _, err := Unlock(client, r.URL, Pin("default", 0)); err != nil || status != http.StatusOK {
		t.Errorf("unlock after promotion: status %d err %v", status, err)
	}
}
