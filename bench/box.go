package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"

	"parallax/internal/buildinfo"
)

// box identifies where a set of runs was taken: numbers from two boxes
// are never compared.
type box struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func fingerprint() box {
	b := box{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				b.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The toolchain stamps the revision only when it builds inside a
	// git checkout; a bare source tree reports "unknown".
	if info := buildinfo.Get(); info.Revision != "" {
		b.Commit = info.Revision
		if info.Modified {
			b.Commit += "+dirty"
		}
	}
	return b
}

// statusField returns the numeric value of a "Key:  123 kB" line of
// /proc/<pid>/status.
func statusField(status, key string) (float64, bool) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			v, err := strconv.ParseFloat(f[0], 64)
			return v, err == nil
		}
	}
	return 0, false
}
