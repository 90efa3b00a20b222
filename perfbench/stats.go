package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: fewer make the percentile a reading of one or two outliers.
const minBeyond = 10

// rankOf is the nearest-rank position of percentile q in n samples: the
// 1-based rank ceil(q·n), so the samples beyond it number n − rankOf.
func rankOf(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-percentile of samples (which it
// sorts in place) and the number of samples beyond it. An empty sample
// reads 0 with nothing beyond.
func percentile(samples []float64, q float64) (v float64, beyond int) {
	if len(samples) == 0 {
		return 0, 0
	}
	sort.Float64s(samples)
	r := rankOf(q, len(samples))
	return samples[r-1], len(samples) - r
}

// median of a small sample (not modified).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// failShare is failed / attempted: wrong answers, non-200 replies and
// error outcomes all count as failed.
func failShare(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// share is num / den, or 0 when den is 0 (a layer that never ran).
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// coveredWithin returns the length of [lo, hi) covered by the union of ivs:
// overlapping intervals count once.
func coveredWithin(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// lockWaits estimates how long each call waited for a lock that every call
// takes once, leadIn[i] ns after it starts, and holds until it returns —
// the shape of pipeline.Cache.Session, which fingerprints outside the lock
// and builds a missing session under it. Held intervals are disjoint and
// each ends when its call does, so a call that is still waiting when
// another call returns cannot acquire the lock before that return: the
// wait is at least the latest other return between the call's lock
// attempt and its own return. That bound is what is reported.
func lockWaits(calls []interval, leadIn []int64) []int64 {
	order := make([]int, len(calls))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return calls[order[a]].end < calls[order[b]].end })
	waits := make([]int64, len(calls))
	for k := 1; k < len(order); k++ {
		i := order[k]
		attempt := calls[i].start + leadIn[i]
		prev := calls[order[k-1]].end
		if prev > attempt && prev < calls[i].end {
			waits[i] = prev - attempt
		}
	}
	return waits
}
