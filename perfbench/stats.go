package main

import (
	"math"
	"sort"
)

// failedLat stands for a request that failed or was refused: it misses
// every latency limit.
const failedLat = math.MaxInt64

// latencies returns done-due in ns for the requests of p that keep
// returns true, failed ones as failedLat.
func latencies(p *phase, keep func(*req) bool) []int64 {
	out := make([]int64, 0, len(p.reqs))
	for i := range p.reqs {
		r := &p.reqs[i]
		if keep != nil && !keep(r) {
			continue
		}
		if p.done[i] < 0 {
			out = append(out, failedLat)
			continue
		}
		out = append(out, p.done[i]-r.due)
	}
	return out
}

func isGet(r *req) bool { return r.kind == opGet }
func isSet(r *req) bool { return r.kind == opSet }

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

// us converts ns to µs for reporting. A failed request would read as
// +Inf, which is not valid JSON, so it is capped at one hour.
func us(ns int64) float64 {
	if ns == failedLat {
		return 3.6e9
	}
	return float64(ns) / 1e3
}

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
