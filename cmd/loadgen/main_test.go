package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wearlock/internal/scenario/catalog"
)

// The registry's default mix must resolve — it is the -mix flag default,
// so a registry regression here would brick every bare loadgen run.
func TestResolveMixRegistryDefault(t *testing.T) {
	spec := catalog.DefaultMixSpec()
	mix, scenarios, err := resolveMix(spec)
	if err != nil {
		t.Fatalf("default mix %q did not resolve: %v", spec, err)
	}
	for _, name := range mix.Names() {
		if _, ok := scenarios[name]; !ok {
			t.Errorf("mix name %q missing from resolved scenario map", name)
		}
	}
	if !strings.Contains(spec, "default=4") {
		t.Errorf("default mix %q lost the historical default=4 weight", spec)
	}
}

// Parametric registry instances are first-class mix members.
func TestResolveMixParametricInstance(t *testing.T) {
	if _, _, err := resolveMix("default=2,cafe/dist=0.6=1"); err != nil {
		t.Fatalf("parametric instance rejected: %v", err)
	}
}

// An unregistered name fails fast, before any daemon boots, and the
// error carries the registered names so the fix is in the message.
func TestResolveMixUnknownNameFailsFast(t *testing.T) {
	_, _, err := resolveMix("default=4,no-such-scenario=1")
	if err == nil {
		t.Fatal("unregistered scenario name accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "no-such-scenario") {
		t.Errorf("error %q does not name the offending scenario", msg)
	}
	for _, want := range []string{"default", "cafe", "jammed/spl=78"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not list registered scenario %q", msg, want)
		}
	}
}

// -chaos must resolve up front and is refused, before anything boots,
// in every mode that would not apply it: a cluster, a failover pair and
// an external daemon all ignore a fault schedule.
func TestChaosRefusedWhereNotApplied(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-selfhost-shards", "1", "-n", "8", "-c", "2", "-devices", "8", "-chaos", "no-such-schedule"}, 1},
		{[]string{"-selfhost-shards", "1", "-n", "8", "-c", "2", "-devices", "8", "-chaos", "builtin"}, 1},
		{[]string{"-selfhost", "-failover", "1s", "-n", "8", "-chaos", "builtin"}, 1},
		{[]string{"-addr", "http://127.0.0.1:1", "-n", "1", "-chaos", "builtin"}, 1},
		{[]string{"-selfhost", "-n", "1", "-chaos", "no-such-schedule"}, 1},
		{[]string{"-virtual", "-n", "4", "-chaos", "no-such-schedule"}, 1},
		{[]string{"-virtual", "-n", "4", "-chaos", "builtin"}, 0},
	} {
		if got := run(tc.args); got != tc.want {
			t.Errorf("loadgen %s exited %d, want %d", strings.Join(tc.args, " "), got, tc.want)
		}
	}
}

// A /metrics answering non-200 is a failed scrape, not an empty
// exposition: against -addr loadgen must exit 1 rather than warn about a
// mismatch and pass.
func TestMetricsScrapeNon200Fails(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			http.Error(w, "scrape broken", http.StatusInternalServerError)
			return
		}
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = io.WriteString(w, `{"state":"done","outcome":"unlocked","unlocked":true}`)
	}))
	defer srv.Close()
	if got := run([]string{"-addr", srv.URL, "-n", "4", "-c", "2"}); got != 1 {
		t.Errorf("loadgen against a 500 /metrics exited %d, want 1", got)
	}
}
