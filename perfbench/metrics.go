package main

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"wearlock/internal/sim"
	"wearlock/internal/telemetry"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mixSeq deals scenario names in blocks. Each block holds every name of
// the mix exactly weight×copies times in a seeded shuffled order, so any
// whole number of blocks carries the mix exactly and only the order
// depends on the seed. That keeps outcome ratios steady across seeds.
type mixSeq struct {
	mu    sync.Mutex
	block []string
	rng   *rand.Rand
	seq   []string
}

func newMixSeq(mix map[string]int, copies int, seed int64) *mixSeq {
	m := &mixSeq{rng: rand.New(rand.NewSource(sim.SeedFor(seed, 0x6d6978)))}
	for _, name := range sortedKeys(mix) {
		for i := 0; i < mix[name]*copies; i++ {
			m.block = append(m.block, name)
		}
	}
	return m
}

// at returns the scenario of request i.
func (m *mixSeq) at(i int) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.seq) <= i {
		start := len(m.seq)
		m.seq = append(m.seq, m.block...)
		tail := m.seq[start:]
		m.rng.Shuffle(len(tail), func(a, b int) { tail[a], tail[b] = tail[b], tail[a] })
	}
	return m.seq[i]
}

// scrape reads a metrics registry through its public Prometheus text
// rendering: series key ("name" or "name{labels}") to value.
func scrape(reg *telemetry.Registry) map[string]float64 {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out
}

// sum adds every series of one metric name, whatever its labels.
func sum(series map[string]float64, name string) float64 {
	var total float64
	for key, v := range series {
		if key == name || strings.HasPrefix(key, name+"{") {
			total += v
		}
	}
	return total
}

// labelled returns one metric's series keyed by the given label's value.
func labelled(series map[string]float64, name, label string) map[string]float64 {
	out := map[string]float64{}
	prefix := name + "{"
	for key, v := range series {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		for _, part := range strings.Split(strings.TrimSuffix(key[len(prefix):], "}"), ",") {
			if k, val, ok := strings.Cut(part, "="); ok && k == label {
				out[strings.Trim(val, `"`)] += v
			}
		}
	}
	return out
}

// stealClock is a reading of /proc/stat: the CPU time the host hypervisor
// took away from this machine ("steal") and the total, in clock ticks. On
// a shared host steal comes in episodes that slow every timing; a run
// uses it to leave the most-stolen intervals out of its medians. Where
// /proc/stat is missing both are 0 and no interval counts as stolen.
type stealClock struct{ steal, total uint64 }

func readSteal() stealClock {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealClock{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return stealClock{}
	}
	var c stealClock
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return stealClock{}
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// shareSince is the share of CPU time stolen since c.
func (c stealClock) shareSince() float64 {
	now := readSteal()
	return ratio(float64(now.steal-c.steal), float64(now.total-c.total))
}

// leastStolen returns, in order, the indexes of the half (rounded up) of
// the intervals with the lowest steal shares.
func leastStolen(shares []float64) []int {
	idx := make([]int, len(shares))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return shares[idx[a]] < shares[idx[b]] })
	idx = idx[:(len(idx)+1)/2]
	sort.Ints(idx)
	return idx
}

// pick returns xs at the given indexes.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}
