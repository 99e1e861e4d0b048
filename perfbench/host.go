package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostFacts describes the machine and the build, so a result can be
// compared only with results from the same host and source.
func hostFacts(seed uint64) map[string]any {
	facts := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"caches":     cacheSizes(),
		"seed":       seed,
		"commit":     commit(),
		"source_sha": sourceDigest(),
	}
	return facts
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheLevel is one sysfs cache entry of CPU 0.
type cacheLevel struct {
	Level  int    `json:"level"`
	Type   string `json:"type"`
	Bytes  int64  `json:"bytes"`
	Shared string `json:"shared_cpus"`
}

func cacheSizes() []cacheLevel {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var out []cacheLevel
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(b))
		}
		lvl, _ := strconv.Atoi(read("level"))
		out = append(out, cacheLevel{Level: lvl, Type: read("type"),
			Bytes: parseSize(read("size")), Shared: read("shared_cpu_list")})
	}
	return out
}

// parseSize reads sysfs sizes such as "48K" or "2048K" or "32M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, _ := strconv.ParseInt(s, 10, 64)
	return v * mult
}

// llcBytes is the largest cache reported for CPU 0 (0 when sysfs has none).
func llcBytes() int64 {
	var best int64
	for _, c := range cacheSizes() {
		if c.Type != "Instruction" && c.Bytes > best {
			best = c.Bytes
		}
	}
	return best
}

// commit is the VCS revision stamped into the binary when it was built
// inside a git checkout, "unknown" otherwise (source_sha still identifies
// the source).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the working
// directory (the repository root), skipping build output.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(p)
			if err == nil {
				h.Write([]byte(p))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// statusKB reads a "VmHWM:"-style line of /proc/self/status in KiB.
func statusKB(key string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			v, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return v
		}
	}
	return 0
}

// memAvailable is MemAvailable from /proc/meminfo in bytes (0 if unknown).
func memAvailable() int64 {
	b, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "MemAvailable:"); ok {
			v, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return v << 10
		}
	}
	return 0
}

// triadCapBytes bounds the three triad arrays together: the host is shared,
// so the probe never takes more than this or a quarter of free memory.
const triadCapBytes = 384 << 20

// triadResult is a STREAM-triad measurement.
type triadResult struct {
	GBps        float64 `json:"gbps"`
	ArrayBytes  int64   `json:"array_bytes"`
	LLCBytes    int64   `json:"llc_bytes"`
	Covers4xLLC bool    `json:"covers_4x_llc"`
}

// triad runs a[i] = b[i] + q·c[i] on `workers` goroutines over contiguous
// ranges and returns the median rate of `reps` passes. Arrays are sized at
// 4× the last-level cache when that fits under triadCapBytes; otherwise
// they are capped and Covers4xLLC is false, so the rate is a computed
// figure, not the DRAM ceiling.
func triad(workers, reps int) triadResult {
	llc := llcBytes()
	want := 4 * llc
	if want < 32<<20 {
		want = 32 << 20
	}
	limit := int64(triadCapBytes / 3)
	if avail := memAvailable(); avail > 0 && avail/12 < limit {
		limit = avail / 12
	}
	size := min(want, limit)
	n := int(size / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	const q = 3.0
	pass := func() {
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, min((w+1)*chunk, n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					a[i] = b[i] + q*c[i]
				}
			}()
		}
		wg.Wait()
	}
	pass()
	rates := make([]float64, reps)
	for r := range rates {
		t := time.Now()
		pass()
		rates[r] = triadBytes(n) / time.Since(t).Seconds() / 1e9
	}
	return triadResult{GBps: median(rates), ArrayBytes: int64(n) * 8, LLCBytes: llc,
		Covers4xLLC: llc > 0 && int64(n)*8 >= 4*llc}
}
