package perfbench

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dylect/internal/system"
	"dylect/internal/trace"
)

// Options controls a measurement run.
type Options struct {
	// Count is how many times each cell is executed; the fastest repetition
	// is recorded (the standard benchmarking estimator for the noise-free
	// cost). Minimum 1.
	Count int
	// Progress, when non-nil, is called before each cell with (index,
	// total, name).
	Progress func(i, n int, name string)
}

// Measure runs the pinned suite and returns a snapshot. Event counts must
// be identical across repetitions — a mismatch means the simulator lost
// determinism, and Measure fails rather than record garbage.
func Measure(cells []Cell, opts Options) (*Snapshot, error) {
	if opts.Count < 1 {
		opts.Count = 1
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("perfbench: empty suite")
	}
	snap := &Snapshot{
		Schema: SchemaVersion,
		Suite:  SuiteVersion,
		//lint:ignore determinism snapshot timestamp for humans; never read back or compared
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Env:       captureEnv(opts.Count),
	}
	for i, c := range cells {
		if opts.Progress != nil {
			opts.Progress(i, len(cells), c.Name)
		}
		m, err := measureCell(c, opts.Count)
		if err != nil {
			return nil, err
		}
		snap.Cells = append(snap.Cells, m)
	}
	snap.aggregate()
	if err := snap.Validate(); err != nil {
		return nil, fmt.Errorf("perfbench: measured snapshot invalid: %w", err)
	}
	return snap, nil
}

// measureCell executes one cell count times, recording the fastest wall
// time and the smallest allocation footprint (GC-assist noise only ever
// inflates the numbers).
func measureCell(c Cell, count int) (CellResult, error) {
	w, ok := trace.ByName(c.Workload)
	if !ok {
		return CellResult{}, fmt.Errorf("perfbench: cell %s: unknown workload %q", c.Name, c.Workload)
	}
	opts := system.Options{
		Workload:       w,
		Design:         c.Design,
		Setting:        c.Setting,
		HugePages:      true,
		WarmupAccesses: c.WarmupAccesses,
		Window:         c.Window,
		ScaleDivisor:   c.ScaleDivisor,
		FootprintFloor: c.FootprintFloor,
		Seed:           c.Seed,
	}
	res := CellResult{
		Name:     c.Name,
		Workload: c.Workload,
		Design:   c.Design.String(),
		Setting:  c.Setting.String(),
	}
	var ms runtime.MemStats
	for rep := 0; rep < count; rep++ {
		// A clean heap per repetition keeps Mallocs deltas comparable and
		// stops one repetition's garbage from taxing the next.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		mallocs, bytes := ms.Mallocs, ms.TotalAlloc
		//lint:ignore determinism wall-clock measurement is perfbench's purpose; it never feeds simulated state
		start := time.Now()
		r, err := system.RunE(opts)
		wall := time.Since(start).Nanoseconds()
		if err != nil {
			return CellResult{}, fmt.Errorf("perfbench: cell %s: %w", c.Name, err)
		}
		runtime.ReadMemStats(&ms)
		allocs := ms.Mallocs - mallocs
		allocBytes := ms.TotalAlloc - bytes
		if r.Events == 0 {
			return CellResult{}, fmt.Errorf("perfbench: cell %s: zero events executed", c.Name)
		}
		if rep == 0 {
			res.Events = r.Events
			res.Insts = r.Insts
			res.WallNS = wall
			res.Allocs = allocs
			res.AllocBytes = allocBytes
			continue
		}
		if r.Events != res.Events {
			return CellResult{}, fmt.Errorf(
				"perfbench: cell %s: nondeterministic event count (%d then %d); refusing to snapshot",
				c.Name, res.Events, r.Events)
		}
		if wall < res.WallNS {
			res.WallNS = wall
		}
		if allocs < res.Allocs {
			res.Allocs = allocs
			res.AllocBytes = allocBytes
		}
	}
	res.derive()
	return res, nil
}

// captureEnv stamps the snapshot with everything needed to judge whether
// two snapshots' wall-clock dimensions are comparable.
func captureEnv(count int) Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Count:      count,
	}
}

// cpuModel best-effort reads the CPU model name (linux); "unknown"
// elsewhere. Wall-clock dimensions from different CPU models are not
// comparable, and the compare tool says so.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}
