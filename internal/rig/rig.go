// Package rig is the shared harness of the daemon drills (loadgen's
// selfhost modes, benchcluster, benchfailover and their tests). It boots
// real wearlockd daemons on loopback — alone, as shards behind a
// registered gateway, or as a primary/standby pair behind a gateway on a
// manual clock — drives unlocks through them, scrapes /metrics, and
// judges the HOTP safety contract with one Oracle (oracle.go), which
// benchstore's kill -9 drill applies to its store directly.
package rig

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/service"
	"wearlock/internal/store"
	"wearlock/internal/telemetry"
	"wearlock/internal/vtime"
)

// Rig is one booted topology. Everything it started sits on one cleanup
// stack that Close unwinds in reverse.
type Rig struct {
	// URL is where clients send traffic: the gateway, or the lone daemon.
	URL string
	// Daemons are the shards in boot order; a pair's primary is
	// Daemons[0].
	Daemons []*Daemon
	Gateway *cluster.Gateway
	// Standby and Clock are set for a pair only.
	Standby *Daemon
	Clock   *vtime.ManualClock

	cleanup []func()
}

// Daemon is one wearlockd served on a loopback listener.
type Daemon struct {
	*service.Service
	Config service.Config
	URL    string
	srv    *http.Server
}

// Shard is the daemon's gateway membership entry.
func (d *Daemon) Shard() cluster.ShardConfig {
	return cluster.ShardConfig{Name: d.Config.ShardID, BaseURL: d.URL}
}

// Single boots one daemon.
func Single(cfg service.Config) (*Rig, error) {
	r := &Rig{}
	d, err := r.Boot(cfg)
	if err != nil {
		return nil, r.fail(err)
	}
	r.URL = d.URL
	return r, nil
}

// Cluster boots one daemon per config behind a gateway built from tmpl
// with the shards filled in (and TotalDevices defaulting to the first
// shard's fleet), then registers it.
func Cluster(shards []service.Config, tmpl cluster.GatewayConfig) (*Rig, error) {
	r := &Rig{}
	for _, cfg := range shards {
		if _, err := r.Boot(cfg); err != nil {
			return nil, r.fail(fmt.Errorf("shard %s: %w", cfg.ShardID, err))
		}
	}
	if err := r.front(tmpl); err != nil {
		return nil, r.fail(err)
	}
	return r, nil
}

// Pair boots a primary and a standby that follows it, waits until the
// primary's shipper has attached, and fronts the primary with a gateway
// built from tmpl that knows the standby and runs on a fresh manual
// clock: heartbeats happen only when the drill calls Heartbeat (or
// StartHeartbeats), so failure detection is scripted.
func Pair(primary, standby service.Config, tmpl cluster.GatewayConfig) (*Rig, error) {
	r := &Rig{}
	p, err := r.Boot(primary)
	if err != nil {
		return nil, r.fail(fmt.Errorf("primary: %w", err))
	}
	r.Standby, err = r.boot(standby)
	if err != nil {
		return nil, r.fail(fmt.Errorf("standby: %w", err))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	err = r.Standby.FollowPrimary(ctx, p.URL, r.Standby.URL)
	cancel()
	if err != nil {
		return nil, r.fail(fmt.Errorf("FollowPrimary: %w", err))
	}
	for deadline := time.Now().Add(time.Minute); !p.ReplicaAttached(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return nil, r.fail(fmt.Errorf("standby never attached: %+v", p.ReplicaStatus()))
		}
	}
	r.Clock = vtime.NewManualClock(time.Unix(1_700_000_000, 0))
	tmpl.Standbys = map[string]string{primary.ShardID: r.Standby.URL}
	tmpl.Clock = r.Clock
	if err := r.front(tmpl); err != nil {
		return nil, r.fail(err)
	}
	return r, nil
}

// Boot starts a daemon from cfg, waits until it is ready (recovery done),
// serves it on loopback and appends it to Daemons. Drills call it
// directly to add a shard that a gateway join will adopt.
func (r *Rig) Boot(cfg service.Config) (*Daemon, error) {
	d, err := r.boot(cfg)
	if err == nil {
		r.Daemons = append(r.Daemons, d)
	}
	return d, err
}

func (r *Rig) boot(cfg service.Config) (*Daemon, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	r.push(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = svc.Shutdown(ctx)
		cancel()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	err = svc.WaitReady(ctx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	url, srv, err := r.Serve(svc.Handler())
	if err != nil {
		return nil, err
	}
	return &Daemon{Service: svc, Config: cfg, URL: url, srv: srv}, nil
}

// front builds, registers and serves the gateway over Daemons.
func (r *Rig) front(tmpl cluster.GatewayConfig) error {
	for _, d := range r.Daemons {
		tmpl.Shards = append(tmpl.Shards, d.Shard())
	}
	if tmpl.TotalDevices == 0 && len(r.Daemons) > 0 {
		tmpl.TotalDevices = r.Daemons[0].Config.Devices
	}
	gw, err := cluster.NewGateway(tmpl)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = gw.Register(ctx)
	cancel()
	if err != nil {
		return fmt.Errorf("gateway register: %w", err)
	}
	r.Gateway = gw
	r.URL, _, err = r.Serve(gw.Handler())
	return err
}

// Serve exposes h on a fresh loopback listener until Close.
func (r *Rig) Serve(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	r.push(func() { _ = srv.Close() })
	return "http://" + ln.Addr().String(), srv, nil
}

// push adds f to the cleanup stack.
func (r *Rig) push(f func()) { r.cleanup = append(r.cleanup, f) }

// Close tears down everything the rig started, newest first. It is
// idempotent.
func (r *Rig) Close() {
	for len(r.cleanup) > 0 {
		f := r.cleanup[len(r.cleanup)-1]
		r.cleanup = r.cleanup[:len(r.cleanup)-1]
		f()
	}
}

func (r *Rig) fail(err error) error {
	r.Close()
	return err
}

// KillPrimary crashes Daemons[0]. Its listener closes first, so
// in-flight responses die at the transport (clients see a retryable
// gateway 503, never a half-written error); then the daemon is killed
// without any graceful drain.
func (r *Rig) KillPrimary() {
	p := r.Daemons[0]
	_ = p.srv.Close()
	p.Kill()
}

// Heartbeat (pair only) advances the manual clock one second and runs
// one gateway probe round; two in a row after KillPrimary cross a HeartbeatMisses=2
// threshold, so the fence + promote runs inside the second.
func (r *Rig) Heartbeat() {
	r.Clock.Advance(time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	r.Gateway.HeartbeatOnce(ctx)
	cancel()
}

// StartHeartbeats (pair only) runs Heartbeat every tick until stop (or
// Close) is called: one simulated second per tick, so failure detection costs real
// milliseconds, not simulated seconds. stop is idempotent.
func (r *Rig) StartHeartbeats(tick time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				r.Heartbeat()
			}
		}
	}()
	var once sync.Once
	stop = func() { once.Do(func() { close(done); wg.Wait() }) }
	r.push(stop)
	return stop
}

// State is the cluster's durable state: the per-device maximum over
// every shard's store (MaxState). Daemons without a store are skipped.
func (r *Rig) State() store.State {
	var states []store.State
	for _, d := range r.Daemons {
		if st, ok := d.StoreState(); ok {
			states = append(states, st)
		}
	}
	return MaxState(states...)
}

// Request is one unlock's body: a registered scenario, a pinned device,
// or both; an empty field leaves the daemon's default.
type Request struct {
	Scenario string `json:"scenario,omitempty"`
	Device   *int   `json:"device,omitempty"`
}

// Pin is a request for one device.
func Pin(scenario string, device int) Request {
	return Request{Scenario: scenario, Device: &device}
}

// View is the slice of a session snapshot the drills read.
type View struct {
	ID            string  `json:"id"`
	State         string  `json:"state"`
	Outcome       string  `json:"outcome"`
	Device        int     `json:"device"`
	Unlocked      bool    `json:"unlocked"`
	Error         string  `json:"error"`
	WallMS        float64 `json:"wall_ms"`
	UnlockDelayMS float64 `json:"unlock_delay_ms"`
}

// Fenced reports a session admitted before a fence but scheduled after
// it: it failed without touching its device, so it is retryable, not an
// outcome.
func (v View) Fenced() bool { return v.State == "failed" && v.Error != "" }

// Unlock posts one synchronous unlock to base. It returns the session
// view (decoded on a 200 only), the HTTP status and the Retry-After
// header.
func Unlock(client *http.Client, base string, req Request) (View, int, string, error) {
	body, _ := json.Marshal(req)
	resp, err := client.Post(base+"/v1/unlock", "application/json", bytes.NewReader(body))
	if err != nil {
		return View{}, 0, "", err
	}
	defer resp.Body.Close()
	var view View
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&view)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return view, resp.StatusCode, resp.Header.Get("Retry-After"), err
}

// Scrape fetches base/metrics and parses every sample line. A status
// other than 200 is an error, never an empty exposition.
func Scrape(client *http.Client, base string) ([]telemetry.Sample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s: %.200s", base, resp.Status, body)
	}
	var samples []telemetry.Sample
	for _, line := range strings.Split(string(body), "\n") {
		if s, ok := telemetry.ParseSample(line); ok {
			samples = append(samples, s)
		}
	}
	return samples, nil
}
