//go:build !linux

package harness

// peakRSSKB reports 0: the peak resident set size is read only on Linux.
func peakRSSKB() uint64 { return 0 }
