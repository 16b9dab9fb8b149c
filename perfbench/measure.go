package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// median returns the middle value of xs (the mean of the middle two
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 < p ≤ 1),
// or 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// digest hashes length-prefixed parts, so concatenation boundaries
// cannot collide.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(strconv.Itoa(len(p)) + ":"))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMiB reads the process's peak resident set (VmHWM), falling
// back to the Go runtime's total reservation where /proc is missing.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// resetPeakRSS restarts the kernel's peak-RSS counter (VmHWM) at the
// current RSS, so the next peakRSSMiB reads the peak since this call.
// It reports false where the counter cannot be reset.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// allocSnapshot is a point-in-time reading of the Go heap counters the
// host layer reports.
type allocSnapshot struct {
	bytes uint64
	gcs   uint32
}

func readAlloc() allocSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocSnapshot{m.TotalAlloc, m.NumGC}
}

// hostBlock names the machine and code a result was measured on.
func hostBlock() map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"cpu":           cpuModel(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// dot-directories such as build outputs), identifying the measured
// code in checkouts that carry no git metadata.
func sourceDigest(root string) string {
	var parts [][]byte
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		parts = append(parts, []byte(filepath.ToSlash(path)), data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return digest(parts...)
}
