package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// timed returns how long f took.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// sameBits reports whether two vectors are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// relTol is ode.Options' default relative tolerance. Two solvers' finals
// agree when they are within 10×relTol of each other, the criterion the
// repository's solver-equivalence tests use.
const relTol = 1e-6

func withinTol(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 10*relTol*(1+math.Abs(b[i])) {
			return false
		}
	}
	return true
}

// maxRelDiff is the largest |a−b|/(1+|b|) over the two vectors.
func maxRelDiff(a, b []float64) float64 {
	w := 0.0
	for i := range a {
		w = math.Max(w, math.Abs(a[i]-b[i])/(1+math.Abs(b[i])))
	}
	return w
}

// heapPeak samples the live heap — the heap the last GC found reachable —
// until stopped, and keeps its maximum. Live heap, unlike the heap's size,
// does not depend on when the collector happened to run.
type heapPeak struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			if v := sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > peak {
				peak = v.Uint64()
			}
			select {
			case <-tick.C:
			case <-h.stopc:
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak in bytes.
func (h *heapPeak) stop() uint64 {
	close(h.stopc)
	return <-h.done
}
