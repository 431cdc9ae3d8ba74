package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB is the process's peak resident set size (VmHWM), falling
// back to the Go runtime's total obtained memory where /proc is absent.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// perCorpus collects one figure per run, by corpus.
type perCorpus [][]float64

func (p *perCorpus) add(k int, v float64) {
	for len(*p) <= k {
		*p = append(*p, nil)
	}
	(*p)[k] = append((*p)[k], v)
}

// corpora counts the corpora with at least one run.
func (p perCorpus) corpora() int {
	n := 0
	for _, xs := range p {
		if len(xs) > 0 {
			n++
		}
	}
	return n
}

// mean is the mean over corpora of each corpus's median, so that every
// corpus weighs the same however often the run loop reached it.
func (p perCorpus) mean() float64 {
	sum, n := 0.0, 0
	for _, xs := range p {
		if len(xs) > 0 {
			sum += median(xs)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
