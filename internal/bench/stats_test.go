package bench

import (
	"math/rand"
	"testing"
)

// percentile is the quantile path Summarize takes, one quantile at a time.
func percentile(xs []int64, p float64) int64 {
	return percentileSorted(sortCopy(xs), p)
}

// TestPercentileNearestRank pins the nearest-rank definition on small,
// hand-checkable samples.
func TestPercentileNearestRank(t *testing.T) {
	xs := []int64{50, 10, 40, 20, 30} // unsorted on purpose
	cases := []struct {
		p    float64
		want int64
	}{
		{0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.8, 40}, {0.81, 50}, {0.99, 50}, {1, 50},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p=%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile mutated its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 0.999); got != 7 {
		t.Errorf("single-sample p999 = %d, want 7", got)
	}
}

// TestPercentileLargeSample: on 0..9999 the quantiles land where they should.
func TestPercentileLargeSample(t *testing.T) {
	xs := make([]int64, 10_000)
	for i := range xs {
		xs[i] = int64(i)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 4999}, {0.99, 9899}, {0.999, 9989}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p=%g) = %d, want %d", c.p, got, c.want)
		}
	}
}

// TestPercentileEdges pins the awkward corners of nearest-rank: extreme
// quantiles of samples far smaller than 1/(1-p), and degenerate samples.
func TestPercentileEdges(t *testing.T) {
	// p = 0.999 of a tiny sample must be the max, never an out-of-range rank.
	for n := 1; n <= 5; n++ {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(10 * (i + 1))
		}
		if got, want := percentile(xs, 0.999), xs[n-1]; got != want {
			t.Errorf("p999 of %d samples = %d, want max %d", n, got, want)
		}
	}
	// A single element answers every quantile.
	for _, p := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if got := percentile([]int64{42}, p); got != 42 {
			t.Errorf("single-element p=%g = %d, want 42", p, got)
		}
	}
	// All-equal samples answer every quantile with that value.
	eq := []int64{7, 7, 7, 7, 7, 7, 7, 7}
	for _, p := range []float64{0, 0.25, 0.5, 0.99, 0.999, 1} {
		if got := percentile(eq, p); got != 7 {
			t.Errorf("all-equal p=%g = %d, want 7", p, got)
		}
	}
	// Out-of-range p clamps to min/max rather than indexing out of bounds.
	xs := []int64{1, 2, 3}
	if got := percentile(xs, -0.5); got != 1 {
		t.Errorf("p<0 = %d, want min 1", got)
	}
	if got := percentile(xs, 1.5); got != 3 {
		t.Errorf("p>1 = %d, want max 3", got)
	}
}

// TestSummarizeDegenerate: the one-sort summary agrees on degenerate inputs.
func TestSummarizeDegenerate(t *testing.T) {
	one := Summarize([]int64{13})
	if one.N != 1 || one.Mean != 13 || one.P50 != 13 || one.P99 != 13 || one.P999 != 13 || one.Max != 13 {
		t.Errorf("Summarize(single) = %+v, want all 13", one)
	}
	eq := Summarize([]int64{4, 4, 4})
	if eq.Mean != 4 || eq.P50 != 4 || eq.P999 != 4 || eq.Max != 4 {
		t.Errorf("Summarize(all-equal) = %+v, want all 4", eq)
	}
}

// TestSummarize checks the one-pass summary against the individual helpers.
func TestSummarize(t *testing.T) {
	xs := []int64{5, 1, 9, 3, 7}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 5 || s.Max != 9 {
		t.Errorf("Summarize = %+v, want N=5 Mean=5 Max=9", s)
	}
	if s.P50 != percentile(xs, 0.5) || s.P99 != percentile(xs, 0.99) || s.P999 != percentile(xs, 0.999) {
		t.Errorf("Summarize quantiles %+v disagree with percentile", s)
	}
	if z := Summarize(nil); z != (LatencySummary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero", z)
	}
}
