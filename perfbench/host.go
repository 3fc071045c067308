package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the header of every result: results from a different host
// shape are flagged, not compared.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	WALFS      string `json:"wal_fs"`
	// ShapeMatches is false when nproc or GOMAXPROCS differ from the shape
	// the workload rates were fixed on.
	ShapeMatches bool `json:"shape_matches"`
}

func readHost(cfg *benchConfig, workdir string) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		WALFS:      fsType(workdir),
	}
	h.ShapeMatches = h.NProc == cfg.Host.NProc && h.GOMAXPROCS == cfg.Host.GOMAXPROCS
	return h
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "" when it
// cannot be read.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return ""
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext2/ext3/ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

// rssWatch samples the process's resident set until halted.
type rssWatch struct {
	stop chan struct{}
	peak chan float64
}

// watchRSS starts sampling VmRSS every 10 ms. It reports the peak over
// the workload's traffic, leaving out set-up, whose cost setup_s shows.
func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		peak := vmRSS()
		for {
			select {
			case <-w.stop:
				w.peak <- math.Max(peak, vmRSS())
				return
			case <-tick.C:
				peak = math.Max(peak, vmRSS())
			}
		}
	}()
	return w
}

// halt stops sampling and returns the peak in MB.
func (w *rssWatch) halt() float64 {
	close(w.stop)
	return <-w.peak
}

// vmRSS is the process's resident set in MB, or 0 when unreadable.
func vmRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuTime is the process's user plus system CPU time in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
