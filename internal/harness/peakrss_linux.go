package harness

import "syscall"

// peakRSSKB returns the process peak resident set size in KB: getrusage's
// ru_maxrss, which Linux reports in kilobytes. 0 if the call fails.
func peakRSSKB() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss)
}
