package main

import (
	"bufio"
	"crypto/sha256"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// Host-drift diagnostics. On a shared VM the host can lose half its CPU to
// other tenants for tens of seconds; these numbers are recorded on every run
// so such an episode can be told apart from a regression. They are never
// gated.

// refLoopMS times a fixed CPU reference loop (SHA-256 over 64 MiB) three
// times and returns the median in milliseconds.
func refLoopMS() float64 {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	var times []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		h := sha256.New()
		for i := 0; i < 1024; i++ {
			h.Write(buf)
		}
		h.Sum(nil)
		times = append(times, float64(time.Since(t0))/1e6)
	}
	return median(times)
}

// cpuTicks reads the aggregate steal and total tick counters of /proc/stat.
// It returns zeros where the file is unavailable.
func cpuTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is already
	// counted inside user and nice.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rtSample is a snapshot of the Go runtime counters the per-layer runtime
// metrics difference.
type rtSample struct {
	allocBytes    float64
	gcCPU, allCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: val(0), gcCPU: val(1), allCPU: val(2)}
}
