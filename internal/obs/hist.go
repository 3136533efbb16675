// Log-bucketed latency histogram. Buckets grow as powers of two, so the
// collector costs O(1) per delivery and ~64 counters total regardless of how
// heavy the tail is — the right trade for a hot simulation loop. Quantiles
// are interpolated linearly inside a bucket, which bounds the relative error
// of a reported quantile by the bucket width (a factor of 2 at worst, far
// less in practice because latencies cluster in few buckets).
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"strings"
)

// LatencyHist accumulates the delivery-latency distribution of measured
// packets. The zero value is ready to use; attach it as (part of) a run's
// Probe and read quantiles afterwards with Quantile.
type LatencyHist struct {
	NopProbe
	count []int64 // count[b] holds latencies with bit length b
	n     int64
	sum   int64
	max   int
}

// Deliver records the latency of measured deliveries (Probe hook).
func (h *LatencyHist) Deliver(_ int, _ int64, _ int64, latency int, measured bool) {
	if !measured {
		return
	}
	h.Observe(latency)
}

// Observe adds one latency sample (cycles) directly.
func (h *LatencyHist) Observe(latency int) {
	if latency < 0 {
		latency = 0
	}
	b := bits.Len(uint(latency)) // bucket b covers [2^(b-1), 2^b - 1]; 0 -> bucket 0
	for len(h.count) <= b {
		h.count = append(h.count, 0)
	}
	h.count[b]++
	h.n++
	h.sum += int64(latency)
	if latency > h.max {
		h.max = latency
	}
}

// Count returns how many samples were observed.
func (h *LatencyHist) Count() int64 { return h.n }

// Mean returns the exact mean of the observed samples (the sum is tracked
// outside the buckets, so this does not suffer bucketing error).
func (h *LatencyHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// bucketBounds returns the inclusive value range covered by bucket b.
func bucketBounds(b int) (lo, hi int) {
	if b == 0 {
		return 0, 0
	}
	return 1 << (b - 1), 1<<b - 1
}

// Quantile returns the q-quantile (q in [0,1]) of the observed latencies,
// interpolated within the log bucket that holds the target rank. 0 when no
// samples were observed.
func (h *LatencyHist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.n-1) // 0-based fractional rank
	var before int64
	for b, c := range h.count {
		if c == 0 {
			continue
		}
		if rank < float64(before+c) {
			lo, hi := bucketBounds(b)
			if hi > h.max {
				hi = h.max // the top bucket ends at the observed max
			}
			if c == 1 || hi == lo {
				return float64(lo)
			}
			frac := (rank - float64(before)) / float64(c-1)
			return float64(lo) + frac*float64(hi-lo)
		}
		before += c
	}
	return float64(h.max)
}

// Summary returns the headline tail statistics.
func (h *LatencyHist) Summary() (p50, p95, p99 float64, max int) {
	return h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.max
}

// WriteText renders the histogram as ASCII bars, one line per non-empty
// bucket, plus a quantile footer.
func (h *LatencyHist) WriteText(w io.Writer) error {
	if h.n == 0 {
		_, err := fmt.Fprintln(w, "latency histogram: no samples")
		return err
	}
	var peak int64
	for _, c := range h.count {
		if c > peak {
			peak = c
		}
	}
	for b, c := range h.count {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(b)
		if hi > h.max {
			hi = h.max
		}
		bar := int(40 * c / peak)
		if bar == 0 {
			bar = 1
		}
		if _, err := fmt.Fprintf(w, "  [%5d,%5d] %-40s %d\n", lo, hi, strings.Repeat("#", bar), c); err != nil {
			return err
		}
	}
	p50, p95, p99, max := h.Summary()
	_, err := fmt.Fprintf(w, "  n=%d mean=%.2f p50=%.1f p95=%.1f p99=%.1f max=%d\n",
		h.n, h.Mean(), p50, p95, p99, max)
	return err
}
