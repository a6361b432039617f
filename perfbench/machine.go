package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// fingerprint describes the machine and the run, so that result files
// from different machines and commits can be compared.
func fingerprint(cfg config, size map[string]any) map[string]any {
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds.Seconds(),
		"trace":         cfg.trace,
		"size":          size,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":     cpuModel(),
		"commit":        gitCommit("."),
		"source_sha256": sourceDigest("."),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// gitCommit resolves HEAD from the .git directory under root without
// running git; checkouts that are not repositories report "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file under root (paths
// and contents, in path order, skipping dot-directories), identifying
// the measured program even where no commit is recorded.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSDuring runs f while sampling the process's resident set every
// 5 ms, and returns the largest sample in MiB. Go returns freed heap to
// the OS only gradually, so the resident peak outlasts the sampling gap.
func peakRSSDuring(f func() error) (float64, error) {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		peak := residentMiB()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- max(peak, residentMiB())
				return
			case <-tick.C:
				peak = max(peak, residentMiB())
			}
		}
	}()
	err := f()
	close(stop)
	return <-done, err
}

// residentMiB reads the process's resident set size from
// /proc/self/statm (0 where it is unavailable).
func residentMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// cpuTicks is the machine's cumulative CPU time from the first line of
// /proc/stat, in clock ticks: time spent running (user, nice, system,
// irq, softirq) and time stolen by the hypervisor.
type cpuTicks struct{ busy, steal int64 }

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]int64
	for i := range v {
		v[i], _ = strconv.ParseInt(fields[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stealShare returns the share of the CPU time wanted between a and b
// (running or stolen) that was stolen. Idle CPUs accrue no steal, so
// this is the slowdown of the CPUs the pass kept busy.
func stealShare(a, b cpuTicks) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	// Below half a CPU-second of ticks (at the usual 100 Hz) the share is
	// too coarse to correct by.
	if steal <= 0 || busy+steal < 50 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}
