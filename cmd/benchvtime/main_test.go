package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadBaselineRequiresMatchingGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	matched := write("one.json", `{"gomaxprocs": 1, "sessions_per_sec": 80.5}`)
	if got, err := readBaseline(matched, 1); err != nil || got != 80.5 {
		t.Fatalf("matched baseline: %v, %v; want 80.5, nil", got, err)
	}
	for _, tc := range []struct{ name, body, want string }{
		{"two.json", `{"gomaxprocs": 2, "sessions_per_sec": 120}`, "measured at gomaxprocs 2"},
		{"none.json", `{"sessions_per_sec": 120}`, "measured at gomaxprocs 0"},
		{"zero.json", `{"gomaxprocs": 1, "sessions_per_sec": 0}`, "not positive"},
		{"bad.json", `{`, "unexpected end"},
	} {
		_, err := readBaseline(write(tc.name, tc.body), 1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
