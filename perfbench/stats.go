package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime/metrics"
	"sort"
	"time"
)

// tailSamples is the number of latency samples the tail percentile is taken
// over. Runs with more samples are thinned evenly to this many, so the
// percentile the rule picks (p99 for 1000) does not drift when a faster
// program completes more documents in the same run length.
const tailSamples = 1000

// tailBeyond is the minimum number of samples the reported tail percentile
// must leave above it.
const tailBeyond = 10

// tail is a tail-latency reading: the value of the highest percentile that
// leaves at least tailBeyond samples above it, the percentile itself, and
// the number of samples it was taken over.
type tail struct {
	Value      float64
	Percentile float64
	Samples    int
}

// tailLatency applies the tail rule to samples, leaving them untouched.
// With n samples the highest percentile leaving k samples above it is the
// value at ascending rank n-k, i.e. percentile 100*(n-k)/n. Fewer than
// k+1 samples leave no such percentile; the maximum is reported as p100
// so the caller still gets a value, flagged by its percentile.
func tailLatency(samples []float64) tail {
	s := thin(samples, tailSamples)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return tail{}
	}
	if n <= tailBeyond {
		return tail{Value: s[n-1], Percentile: 100, Samples: n}
	}
	rank := n - tailBeyond // 1-based rank of the reported sample
	return tail{Value: s[rank-1], Percentile: 100 * float64(rank) / float64(n), Samples: n}
}

// thin returns at most k of samples, evenly spaced across the slice (so
// they cover the whole run), as a fresh slice.
func thin(samples []float64, k int) []float64 {
	n := len(samples)
	if n <= k {
		return append([]float64(nil), samples...)
	}
	out := make([]float64, k)
	for i := range out {
		out[i] = samples[i*n/k]
	}
	return out
}

// median returns the median of xs without modifying it (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// window turns a stream of per-item times into throughput over
// consecutive windows of size items.
type window struct {
	size  int
	n     int
	busy  time.Duration
	rates []float64 // items per second of each full window
}

// add accounts one item that took d.
func (w *window) add(d time.Duration) {
	w.n++
	w.busy += d
	if w.n == w.size {
		w.rates = append(w.rates, float64(w.n)/w.busy.Seconds())
		w.n, w.busy = 0, 0
	}
}

// ratio is a share with its base kept beside it, so every reported ratio
// can name what it was divided by. An empty base reads as 0.
type ratio struct {
	Num, Base int
}

// Value returns Num/Base, or 0 for an empty base.
func (r ratio) Value() float64 {
	if r.Base == 0 {
		return 0
	}
	return float64(r.Num) / float64(r.Base)
}

// String renders the ratio with its base, e.g. "0.25 (3/12)".
func (r ratio) String() string {
	return fmt.Sprintf("%.4g (%d/%d)", r.Value(), r.Num, r.Base)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// per divides a total by a document count (0 for no documents).
func per(total float64, docs int) float64 {
	if docs == 0 {
		return 0
	}
	return total / float64(docs)
}

// digest accumulates the run's repair digest: every document's outcome in
// pool order plus the total repair cardinality.
type digest struct {
	h    hash.Hash
	card int
}

// add hashes one document's outcome line.
func (d *digest) add(doc int, outcome string, card int) {
	if d.h == nil {
		d.h = sha256.New()
	}
	fmt.Fprintf(d.h, "%d\t%s\n", doc, outcome)
	d.card += card
}

// sum returns the hex digest with the total cardinality appended.
func (d *digest) sum() string {
	if d.h == nil {
		d.h = sha256.New()
	}
	return fmt.Sprintf("%s card=%d", hex.EncodeToString(d.h.Sum(nil))[:16], d.card)
}

// memSampler reads the runtime's heap and GC counters cheaply (no
// stop-the-world), for peak-heap tracking and per-document allocation.
type memSampler struct {
	s []metrics.Sample
}

func newMemSampler() *memSampler {
	return &memSampler{s: []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}

// read returns the live heap as of the last GC, cumulative allocated
// bytes and completed GC cycles.
func (m *memSampler) read() (live, allocs, cycles uint64) {
	metrics.Read(m.s)
	return m.s[0].Value.Uint64(), m.s[1].Value.Uint64(), m.s[2].Value.Uint64()
}

// mb converts bytes to MiB.
func mb(b uint64) float64 { return float64(b) / (1 << 20) }
