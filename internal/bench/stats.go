package bench

import "sort"

// sortCopy returns a private ascending-sorted copy of xs, the one sort every
// quantile helper shares: callers needing several quantiles of the same
// sample sort once here and read them all through percentileSorted.
func sortCopy(xs []int64) []int64 {
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted
}

// percentileSorted returns the p-quantile (p in [0, 1]) of an ascending-
// sorted sample by the nearest-rank method: the smallest sample such that at
// least p of the distribution lies at or below it; an empty slice yields 0.
// Nearest-rank (rather than interpolation) keeps the result an actual
// observed sample, so quantiles of cycle-valued latencies stay integral and
// byte-stable in JSON.
func percentileSorted(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := int(p * float64(len(sorted)))
	if float64(rank) < p*float64(len(sorted)) {
		rank++ // ceil for fractional ranks
	}
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// LatencySummary condenses a latency sample set to the tail metrics the
// cluster experiment reports.
type LatencySummary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  int64   `json:"p50"`
	P99  int64   `json:"p99"`
	P999 int64   `json:"p999"`
	Max  int64   `json:"max"`
}

// Summarize computes the summary in one sort of a private copy.
func Summarize(xs []int64) LatencySummary {
	if len(xs) == 0 {
		return LatencySummary{}
	}
	sorted := sortCopy(xs)
	sum := int64(0)
	for _, x := range sorted {
		sum += x
	}
	return LatencySummary{
		N:    len(sorted),
		Mean: float64(sum) / float64(len(sorted)),
		P50:  percentileSorted(sorted, 0.50),
		P99:  percentileSorted(sorted, 0.99),
		P999: percentileSorted(sorted, 0.999),
		Max:  sorted[len(sorted)-1],
	}
}
