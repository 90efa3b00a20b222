package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is one op's outcome as its client saw it.
type opResult struct {
	// class groups latencies ("select", "reconstruct", "campaign", "mine").
	class string
	ms    float64
	err   error
	// end is when the op returned, measured from the start of its phase.
	end time.Duration
}

// phaseBlocks is how many equal blocks of time a timed phase is cut into.
// Each reported throughput and latency is the median of its per-block
// values, so a stall of the host that covers one block moves none of
// them. Three blocks of a 15-second run leave each block's tail
// percentile at least ten samples on every workload.
const phaseBlocks = 3

// phase is what one timed phase measured.
type phase struct {
	attempted, failed int
	wall              time.Duration
	// block is the length of each of the phaseBlocks blocks.
	block           time.Duration
	ops             []opResult
	allocBytes      uint64
	gcCPU, totalCPU float64 // CPU seconds
	errs            []string
}

// blockOf is the block an op that returned at end belongs to; ops that
// return after the last block's end count in the last block.
func (p *phase) blockOf(end time.Duration) int {
	if p.block <= 0 {
		return 0
	}
	return min(int(end/p.block), phaseBlocks-1)
}

// latencies returns the latencies of the phase's ops of class (every op
// when class is ""), per block.
func (p *phase) latencies(class string) [phaseBlocks][]float64 {
	var out [phaseBlocks][]float64
	for _, o := range p.ops {
		if class == "" || o.class == class {
			b := p.blockOf(o.end)
			out[b] = append(out[b], o.ms)
		}
	}
	return out
}

// opsPerS is the median over blocks of the rate at which ops returned: in
// each block, the returns after its first one over the time from its
// first return to its last. Unlike a count per block, the rate is not
// rounded to whole ops. A block with fewer than two returns reads 0.
func (p *phase) opsPerS() float64 {
	var first, last [phaseBlocks]time.Duration
	var n [phaseBlocks]int
	for _, o := range p.ops {
		b := p.blockOf(o.end)
		if n[b] == 0 || o.end < first[b] {
			first[b] = o.end
		}
		last[b] = max(last[b], o.end)
		n[b]++
	}
	rates := make([]float64, phaseBlocks)
	for b := range rates {
		if n[b] > 1 && last[b] > first[b] {
			rates[b] = float64(n[b]-1) / (last[b] - first[b]).Seconds()
		}
	}
	return median(rates)
}

// latency is the median over blocks of each block's q-percentile latency
// of class (every op when class is ""), with the sample count and the
// fewest samples beyond the percentile in any block. Blocks without an op
// of the class take no part in the median.
func (p *phase) latency(class string, q float64) (v float64, n, beyond int) {
	var vs []float64
	beyond = -1
	for _, b := range p.latencies(class) {
		if len(b) == 0 {
			beyond = 0
			continue
		}
		n += len(b)
		bv, bb := percentile(b, q)
		vs = append(vs, bv)
		if beyond < 0 || bb < beyond {
			beyond = bb
		}
	}
	return median(vs), n, beyond
}

// meanMS is the mean latency of every op of the phase.
func (p *phase) meanMS() float64 {
	sum := 0.0
	for _, o := range p.ops {
		sum += o.ms
	}
	return share(sum, float64(len(p.ops)))
}

// runtimeSample reads the runtime counters a phase reports as deltas.
type runtimeSample struct {
	alloc         uint64
	gcCPU, allCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{alloc: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64()}
}

// liveHeapMB collects garbage and returns the heap that survives, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// heapQ is the percentile of the warm-up's live-heap readings reported as
// the peak: one reading taken while an unusually large input is held
// moves the maximum, not the 90th percentile.
const heapQ = 0.9

// maxErrs bounds the failure messages a phase keeps for the report.
const maxErrs = 5

// closedLoop runs clients goroutines, each issuing its next op only after
// the previous one returns, until d has elapsed; op numbers come from one
// shared counter starting at first. It waits for every client to finish
// its last op before returning.
func closedLoop(clients, first int, d time.Duration, op func(client, i int) opResult) *phase {
	runtime.GC()
	p := &phase{block: d / phaseBlocks}
	before := readRuntime()
	var next atomic.Int64
	next.Store(int64(first))
	results := make([][]opResult, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				r := op(c, i)
				r.end = time.Since(start)
				results[c] = append(results[c], r)
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	after := readRuntime()
	p.allocBytes = after.alloc - before.alloc
	p.gcCPU = after.gcCPU - before.gcCPU
	p.totalCPU = after.allCPU - before.allCPU

	for _, rs := range results {
		for _, r := range rs {
			p.attempted++
			if r.err != nil {
				p.failed++
				if len(p.errs) < maxErrs {
					p.errs = append(p.errs, fmt.Sprintf("%s: %v", r.class, r.err))
				}
			}
			p.ops = append(p.ops, r)
		}
	}
	for _, e := range p.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", e)
	}
	return p
}

// warmSpec is a workload's warm-up: how many ops it runs, and after every
// how many of them it reads the live heap.
type warmSpec struct{ ops, every int }

// warmUp runs ops 0..w.ops-1 in turn before the timed phase, so caches
// fill and lazy set-up finishes untimed, and measures the heap the
// workload keeps live: after every w.every-th op it collects garbage and
// reads the heap that survives. peak_heap_mb is the heapQ-percentile of
// those readings. The count of ops is fixed, so the reading does not
// depend on how fast the machine ran. A failed warm-up op fails the run's
// checks.
func (r *report) warmUp(w warmSpec, op func(client, i int) opResult) {
	var reads []float64
	for i := 0; i < w.ops; i++ {
		if res := op(0, i); res.err != nil && len(r.checkErrs) < maxErrs {
			r.checkErrs = append(r.checkErrs, fmt.Sprintf("warm-up %s %d: %v", res.class, i, res.err))
		}
		if (i+1)%w.every == 0 {
			reads = append(reads, liveHeapMB())
		}
	}
	if len(reads) == 0 {
		reads = append(reads, liveHeapMB())
	}
	r.warmOps = w.ops
	r.heapReads = len(reads)
	r.heapMB, _ = percentile(reads, heapQ)
}

// timeMS runs f and returns its wall time in milliseconds.
func timeMS(f func()) float64 {
	t := time.Now()
	f()
	return float64(time.Since(t).Nanoseconds()) / 1e6
}

// setUp runs setup reps times — once in a traced run — and records each
// repetition's wall time. Garbage is collected before each repetition, so
// none pays for an earlier one's; the last repetition's state is kept.
func (r *report) setUp(reps int, trace bool, setup func() error) error {
	if trace {
		reps = 1
	}
	for k := 0; k < reps; k++ {
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
	}
	return nil
}
