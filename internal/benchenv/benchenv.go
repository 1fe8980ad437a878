// Package benchenv records the capture environment that every BENCH_*.json
// artifact carries, so a before/after comparison can be checked for being
// from the same host, toolchain and commit.
package benchenv

import (
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Header is the common header of a BENCH_*.json report. Embed it in the
// report struct so its fields sit at the top level of the JSON object.
type Header struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"`
}

// Capture describes the running process and the commit it was built from.
func Capture() Header {
	return Header{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     commit(),
	}
}

// commit returns the VCS revision stamped into the binary by go build,
// or, for go run and go test binaries, which are not stamped, the HEAD
// of the git checkout in the working directory. A "-dirty" suffix marks
// uncommitted changes; "unknown" means neither source was available.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(status) > 0 {
		rev += "-dirty"
	}
	return rev
}
