package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a snapshot of the process and host counters a timed phase is
// bracketed with: process CPU from getrusage, the Go runtime's GC CPU
// accounting, and the host's /proc/stat jiffies (for hypervisor steal).
type usage struct {
	wall      time.Time
	user, sys time.Duration
	gcCPU     float64 // seconds, runtime/metrics
	totalCPU  float64 // seconds, runtime/metrics
	host      [8]uint64
}

func takeUsage() usage {
	u := usage{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.user = time.Duration(ru.Utime.Nano())
		u.sys = time.Duration(ru.Stime.Nano())
	}
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		u.totalCPU = samples[1].Value.Float64()
	}
	u.host = hostJiffies()
	return u
}

// hostJiffies reads the aggregate cpu line of /proc/stat: user, nice, system,
// idle, iowait, irq, softirq, steal. Zeros when unavailable (non-Linux).
func hostJiffies() [8]uint64 {
	var out [8]uint64
	f, err := os.Open("/proc/stat")
	if err != nil {
		return out
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return out
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return out
	}
	for i := range out {
		out[i], _ = strconv.ParseUint(fields[i+1], 10, 64)
	}
	return out
}

// usageDelta is the difference between two usage snapshots.
type usageDelta struct {
	wall, user, sys time.Duration
	gcShare         float64 // GC CPU / total Go CPU
	stealPct        float64 // host steal jiffies / all jiffies, percent
}

func (u usage) since(start usage) usageDelta {
	d := usageDelta{
		wall: u.wall.Sub(start.wall),
		user: u.user - start.user,
		sys:  u.sys - start.sys,
	}
	if tot := u.totalCPU - start.totalCPU; tot > 0 {
		d.gcShare = (u.gcCPU - start.gcCPU) / tot
	}
	d.stealPct = stealPct(start.host, u.host)
	return d
}

// stealPct is the share of all host CPU time between two /proc/stat
// snapshots that the hypervisor stole, in percent.
func stealPct(from, to [8]uint64) float64 {
	var all uint64
	for i := range to {
		all += to[i] - from[i]
	}
	if all == 0 {
		return 0
	}
	return 100 * float64(to[7]-from[7]) / float64(all)
}

func (d usageDelta) cpu() time.Duration { return d.user + d.sys }

// sysShare is the process's system CPU over its user+system CPU.
func (d usageDelta) sysShare() float64 {
	if d.cpu() <= 0 {
		return 0
	}
	return float64(d.sys) / float64(d.cpu())
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// percentile is the nearest-rank percentile (q in (0,1]) of the samples; with
// fewer than 1/(1-q) samples it is their maximum.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(rank, len(s)-1))]
}

// median is the middle sample, or the mean of the two middle samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := slices.Clone(samples)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// hostBlock describes the machine and build a result was measured on.
type hostBlock struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	SourceSHA  string  `json:"source_sha256"`
	StealPct   float64 `json:"steal_pct"`
	UserCPUS   float64 `json:"user_cpu_s"`
	SysCPUS    float64 `json:"sys_cpu_s"`
	SysShare   float64 `json:"sys_cpu_share"`
	GCCPUShare float64 `json:"gc_cpu_share"`
	StoreFS    string  `json:"store_fs,omitempty"`
}

func newHostBlock(root string, d usageDelta) hostBlock {
	return hostBlock{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(root),
		SourceSHA:  sourceDigest(root),
		StealPct:   d.stealPct,
		UserCPUS:   d.user.Seconds(),
		SysCPUS:    d.sys.Seconds(),
		SysShare:   d.sysShare(),
		GCCPUShare: d.gcShare,
	}
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

// gitSHA resolves HEAD when the checkout is a git work tree; benchmark
// checkouts usually are not, so sourceDigest identifies the code instead.
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	sha, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref)))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

// sourceDigest is a SHA-256 over the module's go.mod and Go sources (path
// and contents, in walk order), skipping the build directory.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fsType names the filesystem holding path: tmpfs, ext4, or its magic
// number.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
