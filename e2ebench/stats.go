package main

import (
	"bufio"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs, interpolating
// linearly between the closest ranks (the "inclusive" definition, so p=0
// is the minimum and p=1 the maximum). xs is not modified. An empty input
// yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// beyond counts the samples strictly above the p-quantile: the number of
// observations a tail percentile actually rests on.
func beyond(xs []float64, p float64) int {
	q := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > q {
			n++
		}
	}
	return n
}

// ratio divides, reporting 0 for an empty base instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's accumulated user and system CPU time.
type cpuTime struct{ user, sys time.Duration }

func tvDuration(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// rusage samples getrusage(RUSAGE_SELF): CPU time so far and the peak
// resident set size in bytes (ru_maxrss, which Linux reports in KiB — the
// same figure as VmHWM).
func rusage() (cpuTime, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTime{}, 0
	}
	return cpuTime{user: tvDuration(ru.Utime), sys: tvDuration(ru.Stime)}, ru.Maxrss * 1024
}

// cpuSince is the user plus system CPU time spent between two samples.
func cpuSince(before, after cpuTime) time.Duration {
	return (after.user - before.user) + (after.sys - before.sys)
}

// parseProm reads a Prometheus text exposition into series -> value, the
// series key being the metric name with its label set exactly as
// exposed. Comment and malformed lines are skipped.
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// promDelta is after - before for every series present after.
func promDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
