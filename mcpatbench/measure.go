package main

// Measurement helpers shared by every workload: the timed op loop with
// its allocation and GC deltas, percentiles, peak RSS and the
// hex-float digest of simulated outputs.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// metric is one printed result.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // sample count or definition, printed next to the value
}

// loopResult is what one timed section measured.
type loopResult struct {
	durs      []float64 // per-op host seconds, in op order
	opUnits   []int     // units each op completed (0 for a failed op)
	attempted int
	ok        int
	units     int

	allocBytes, allocs uint64
	gcCycles           uint32
	gcCPUFraction      float64 // GC CPU over total CPU during the op windows
}

// gcCPU reads the cumulative GC and total CPU seconds of the process.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runDeadline, when set, stops a timed section early so a run stays well
// inside the 180 s it may take: a build so slow that its fixed op count
// would overrun stops, and the ops it did not reach count as failed.
// main sets it; tests leave it zero.
var runDeadline time.Time

// loopSteps are the parts of one op. Only op is timed; prep (cache
// resets, loop arming, request encoding) runs before it and check (the
// workload's output check) after it. An op that returns an error or
// fails its check counts as failed.
type loopSteps struct {
	prep  func(i int)
	op    func(i int) (units int, err error)
	check func(i int) error
}

// timedLoop runs n ops and records failures in out. Allocation and GC
// figures are summed over the op windows alone, so the benchmark's own
// prep and check work never counts: runtime.ReadMemStats flushes every
// per-P allocation cache, which makes its counts exact at the window
// edges, and it runs outside the op's timer.
func timedLoop(n int, s loopSteps, out *outcome) loopResult {
	res := loopResult{durs: make([]float64, 0, n), opUnits: make([]int, 0, n), attempted: n}
	runtime.GC()
	var m0, m1 runtime.MemStats
	var gcS, cpuS float64
	for i := 0; i < n; i++ {
		if !runDeadline.IsZero() && time.Now().After(runDeadline) {
			out.fail("run deadline reached after %d of %d ops", i, n)
			break
		}
		if s.prep != nil {
			s.prep(i)
		}
		gc0, cpu0 := gcCPU()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		units, err := s.op(i)
		res.durs = append(res.durs, time.Since(t0).Seconds())
		runtime.ReadMemStats(&m1)
		gc1, cpu1 := gcCPU()
		res.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		res.allocs += m1.Mallocs - m0.Mallocs
		res.gcCycles += m1.NumGC - m0.NumGC
		gcS, cpuS = gcS+gc1-gc0, cpuS+cpu1-cpu0
		if err == nil && s.check != nil {
			err = s.check(i)
		}
		if err != nil {
			out.fail("op %d: %v", i, err)
			res.opUnits = append(res.opUnits, 0)
			continue
		}
		res.opUnits = append(res.opUnits, units)
		res.units += units
		res.ok++
	}
	if cpuS > 0 {
		res.gcCPUFraction = gcS / cpuS
	}
	out.attempted, out.failed = n, n-res.ok
	return res
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Run statistics are medians over blocks of consecutive ops. Host
// noise on a shared machine comes in bursts of a second or so; a burst
// moves the blocks it covers, and the median over blocks keeps it from
// moving the run's figure. Each block holds at least minBlockOps ops, so
// at least five of its ops, and ten of the run's, lie beyond the p90.
const (
	maxBlocks   = 20
	minBlockOps = 50
)

// blocks splits the ops of a run into consecutive blocks.
func blocks(n int) [][2]int {
	nb := max(1, min(maxBlocks, n/minBlockOps))
	out := make([][2]int, nb)
	for b := range out {
		out[b] = [2]int{b * n / nb, (b + 1) * n / nb}
	}
	return out
}

// blockThroughput is the median over blocks of units per timed second.
func blockThroughput(lr loopResult) float64 {
	var rates []float64
	for _, b := range blocks(len(lr.durs)) {
		units, secs := 0, 0.0
		for i := b[0]; i < b[1]; i++ {
			units += lr.opUnits[i]
			secs += lr.durs[i]
		}
		if secs > 0 {
			rates = append(rates, float64(units)/secs)
		}
	}
	return median(rates)
}

// blockQuantile is the median over blocks of the q-quantile of op time.
func blockQuantile(lr loopResult, q float64) float64 {
	var qs []float64
	for _, b := range blocks(len(lr.durs)) {
		qs = append(qs, quantile(lr.durs[b[0]:b[1]], q))
	}
	return median(qs)
}

// maxRSSMB returns the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// digest hashes simulated outputs as exact hex floats, so two runs print
// the same digest only if every hashed number is bit-identical.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) floats(vs ...float64) {
	var buf []byte
	for _, v := range vs {
		buf = strconv.AppendFloat(buf[:0], v, 'x', -1, 64)
		buf = append(buf, ' ')
		d.h.Write(buf)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// Set-up repetitions: preSetups before the timed section (the last
// leaves the state the section uses) and postSetups after it, so the
// median set-up time samples the host at both ends of the run.
const (
	preSetups  = 8
	postSetups = 7
)

// setupTimer times a workload's set-up; each repetition starts from the
// state reset leaves behind.
type setupTimer struct {
	reset func()
	run   func() error
	times []float64
}

func (s *setupTimer) repeat(reps int) error {
	for i := 0; i < reps; i++ {
		s.reset()
		runtime.GC()
		t0 := time.Now()
		if err := s.run(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s.times = append(s.times, time.Since(t0).Seconds())
	}
	return nil
}
