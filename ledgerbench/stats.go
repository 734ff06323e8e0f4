package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// sample collects one timing's observations.
type sample []float64

func (s sample) sorted() sample {
	c := append(sample(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile is the nearest-rank q-quantile; NaN without observations.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := s.sorted()
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[max(0, min(i, len(c)-1))]
}

func median(xs []float64) float64 { return sample(xs).quantile(0.5) }

// perPass holds one timing's observations, one sample per timed pass.
type perPass []sample

// n is the number of observations over all passes.
func (pp perPass) n() int {
	n := 0
	for _, s := range pp {
		n += len(s)
	}
	return n
}

// quantile is the median, over blocks of consecutive passes, of each
// block's q-quantile. A block is the fewest passes that hold at least ten
// observations beyond the quantile (leftover passes join the last block);
// with a single block this is the q-quantile of all observations.
func (pp perPass) quantile(q float64) float64 {
	need := int(math.Ceil(10 / (1 - q)))
	var blocks []sample
	var cur sample
	for _, s := range pp {
		cur = append(cur, s...)
		if len(cur) >= need {
			blocks = append(blocks, cur)
			cur = nil
		}
	}
	switch {
	case len(blocks) == 0:
		return cur.quantile(q)
	case len(cur) > 0:
		blocks[len(blocks)-1] = append(blocks[len(blocks)-1], cur...)
	}
	per := make(sample, len(blocks))
	for i, b := range blocks {
		per[i] = b.quantile(q)
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metricSet accumulates named metrics and prints each with its unit and
// the number of observations behind it.
type metricSet struct {
	m   map[string]metric
	out io.Writer
}

func newMetricSet(out io.Writer) *metricSet { return &metricSet{m: map[string]metric{}, out: out} }

// put records a metric; n is its sample count (0 = a ratio or count).
func (ms *metricSet) put(name string, value float64, unit string, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	ms.m[name] = metric{Value: value, Unit: unit}
	if n > 0 {
		fmt.Fprintf(ms.out, "metric %-32s %14.6f %-10s n=%d\n", name, value, unit, n)
	} else {
		fmt.Fprintf(ms.out, "metric %-32s %14.6f %s\n", name, value, unit)
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
