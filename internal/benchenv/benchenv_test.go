package benchenv

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"
)

func TestCaptureFillsHeader(t *testing.T) {
	h := Capture()
	if _, err := time.Parse(time.RFC3339, h.Date); err != nil {
		t.Errorf("date %q: %v", h.Date, err)
	}
	if h.GoVersion != runtime.Version() || h.GOOS != runtime.GOOS || h.GOARCH != runtime.GOARCH {
		t.Errorf("toolchain fields %+v do not describe this process", h)
	}
	if h.GOMAXPROCS < 1 || h.NumCPU < 1 || h.Commit == "" {
		t.Errorf("incomplete header %+v", h)
	}
}

// TestHeaderInlinesWhenEmbedded pins the JSON shape reports rely on: an
// embedded Header puts its fields at the top level of the report.
func TestHeaderInlinesWhenEmbedded(t *testing.T) {
	rep := struct {
		Header
		Cases []int `json:"cases"`
	}{Header: Capture()}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]any
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"date", "go_version", "goos", "goarch", "gomaxprocs", "num_cpu", "commit", "cases"} {
		if _, ok := top[key]; !ok {
			t.Errorf("key %q missing from %s", key, data)
		}
	}
}
