// Command dylect-bench runs the pinned performance suite (internal/perfbench)
// and manages BENCH_<n>.json trajectory snapshots.
//
// Usage:
//
//	dylect-bench [-count N] [-out BENCH_2.json]     measure the suite
//	dylect-bench -compare BENCH_1.json BENCH_2.json diff two snapshots
//	dylect-bench -list                              print the suite cells
//
// Measure mode writes a schema-versioned snapshot of deterministic counts:
// simulated events, instructions and heap allocations per cell. Compare
// mode exits 0 when the new snapshot is clean, 1 when allocs/event grew past
// -allocs-threshold in the total or in one design, and 2 on usage or I/O
// errors. Wall-clock speed is the repository benchmark's (dybench/).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dylect/internal/perfbench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dylect-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("out", "", "write the measured snapshot to this file (default: stdout)")
		count    = fs.Int("count", 3, "repetitions per cell; the smallest allocation count is recorded")
		compare  = fs.Bool("compare", false, "compare two snapshot files instead of measuring")
		allocTol = fs.Float64("allocs-threshold", 0.02, "tolerated fractional allocs/event growth (a hard gate)")
		list     = fs.Bool("list", false, "list the pinned suite cells and exit")
		quiet    = fs.Bool("quiet", false, "suppress per-cell progress")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dylect-bench [flags]\n       dylect-bench -compare OLD.json NEW.json\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, c := range perfbench.Suite() {
			fmt.Fprintf(stdout, "%-24s scale=%d floor=%dMB warmup=%d window=%dns seed=%d\n",
				c.Name, c.ScaleDivisor, c.FootprintFloor>>20, c.WarmupAccesses, c.Window, c.Seed)
		}
		return 0
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "dylect-bench: -compare needs exactly two snapshot files")
			fs.Usage()
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), perfbench.Thresholds{Allocs: *allocTol}, stdout, stderr)
	}

	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "dylect-bench: unexpected arguments %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	return runMeasure(*out, *count, *quiet, stdout, stderr)
}

func runMeasure(out string, count int, quiet bool, stdout, stderr io.Writer) int {
	opts := perfbench.Options{Count: count}
	if !quiet {
		opts.Progress = func(i, n int, name string) {
			fmt.Fprintf(stderr, "[%2d/%d] %s\n", i+1, n, name)
		}
	}
	snap, err := perfbench.Measure(perfbench.Suite(), opts)
	if err != nil {
		fmt.Fprintf(stderr, "dylect-bench: %v\n", err)
		return 2
	}
	data, err := snap.Encode()
	if err != nil {
		fmt.Fprintf(stderr, "dylect-bench: %v\n", err)
		return 2
	}
	if out == "" {
		_, err = stdout.Write(data)
	} else {
		err = os.WriteFile(out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "dylect-bench: %v\n", err)
		return 2
	}
	if out != "" {
		fmt.Fprintf(stderr, "wrote %s: %d cells, %.2f allocs/event\n",
			out, snap.Total.Cells, snap.Total.AllocsPerEvent)
	}
	return 0
}

func runCompare(oldPath, newPath string, th perfbench.Thresholds, stdout, stderr io.Writer) int {
	load := func(path string) (*perfbench.Snapshot, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		s, err := perfbench.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	}
	oldSnap, err := load(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "dylect-bench: %v\n", err)
		return 2
	}
	newSnap, err := load(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "dylect-bench: %v\n", err)
		return 2
	}
	report, err := perfbench.Compare(oldSnap, newSnap, th)
	if err != nil {
		fmt.Fprintf(stderr, "dylect-bench: %v\n", err)
		return 2
	}
	fmt.Fprint(stdout, report.Render())
	if report.Failed() {
		fmt.Fprintln(stderr, "dylect-bench: FAIL: hard regression detected")
		return 1
	}
	return 0
}
