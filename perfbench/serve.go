package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"listcolor/internal/graph"
)

// serve-mixed: open loop on a streamed ring of 2·10⁵ nodes. One
// connection writes 1-op batches at the reference rate, one reads
// Zipf-hot nodes at a fixed rate. An untraced run spends 60% of its
// time at the reference rate (the first 5% warm up). Then a ladder
// doubles the write rate, reads unchanged, every 10% of the time until
// the backlog of a step grows, and once more.
//
// write_rate_max is the rate at which the service answers writes in
// that last step, deep in saturation: the median over its 100 ms slices.
// It is printed, not reported as a metric: over ten runs on a shared
// 2-CPU machine its spread was far wider than the largest regression
// bound a metric may have, as the CPU other guests took came and went.
// The reference rate sits at about a tenth of the ring's write capacity
// on a quiet 2-CPU machine, so that a write's latency stays its own cost
// plus the checkpoints it meets even when other guests take a share of
// the CPU.
const (
	// serveNodes is large enough that the O(n) colors copy in publish
	// dominates a 1-op batch, and small enough that a run's latencies
	// repeat: at 10⁶ nodes the collector's work over a ~400 MB heap
	// made write and read latency and capacity vary by more than 25%
	// between runs on a shared 2-CPU machine.
	serveNodes     = 200_000
	serveWriteRate = 50.0   // writes/s at the reference rate
	serveReadRate  = 1000.0 // reads/s, held fixed on the ladder too
	zipfS          = 1.1
	// serveWarmupShare of a run's time warms up before the reference
	// window.
	serveWarmupShare = 0.05
	// giveUpMs bounds a saturated step: a write that cannot start this
	// long after the step's window closes is not sent.
	giveUpMs = 500
)

// zipfNodes draws count node ids with Zipf-distributed popularity;
// ranks map to ids through a fixed odd multiplier so hot nodes are
// scattered over the id space.
func zipfNodes(n, count int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	z := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	out := make([]int, count)
	for i := range out {
		out[i] = int((z.Uint64()*2654435761 + uint64(seed)) % uint64(n))
	}
	return out
}

type servePhase struct {
	rate          float64
	writes, reads []reqRec
	start, end    int64   // the offered window, tracer time
	offered       []int64 // due times of every write offered, sent or not
}

// serveRun holds the connections and the position in the scripts.
type serveRun struct {
	tr           *tracer
	wc, rc       *client
	bodies       [][]byte
	readNodes    []int
	nextW, nextR int
}

// phase runs writes at rate and reads at serveReadRate for dur seconds.
// With giveUp set, writes that cannot start within giveUpMs after the
// window closes are not sent.
func (r *serveRun) phase(rate, dur float64, giveUp bool) servePhase {
	nW, nR := int(rate*dur), int(serveReadRate*dur)
	if r.nextW+nW > len(r.bodies) || r.nextR+nR > len(r.readNodes) {
		panic("serve-mixed: script shorter than the phases need")
	}
	start := r.tr.now() + int64(5*time.Millisecond)
	p := servePhase{rate: rate, start: start, end: start + int64(dur*1e9)}
	for i := 0; i < nW; i++ {
		p.offered = append(p.offered, start+int64(float64(i)*1e9/rate))
	}
	var stop int64
	if giveUp {
		stop = p.end + int64(giveUpMs*time.Millisecond)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := r.nextR
		p.reads = openLoop(r.tr, start, serveReadRate, nR, 0, func(rec *reqRec, i int) { r.rc.read(rec, r.readNodes[base+i]) })
	}()
	base := r.nextW
	p.writes = openLoop(r.tr, start, rate, nW, stop, func(rec *reqRec, i int) {
		rec.body = base + i
		r.wc.write(rec, r.bodies[base+i])
	})
	wg.Wait()
	r.nextW += len(p.writes)
	r.nextR += nR
	return p
}

// backlogGrows reports completions falling behind the offered count:
// every write due in the second half of the window found its
// connection still busy with an earlier one (or was never sent). A
// checkpoint stall queues writes for a moment, after which the writer
// catches up; above capacity it never does.
func (p *servePhase) backlogGrows() bool {
	mid := p.start + (p.end-p.start)/2
	prevEnd := int64(0)
	for _, w := range p.writes {
		if w.due >= mid && prevEnd <= w.due {
			return false
		}
		prevEnd = w.end
	}
	return true
}

// answeredRate is the writes answered per second within the window.
func (p *servePhase) answeredRate() float64 {
	n := 0
	for _, w := range p.writes {
		if w.end > p.start && w.end <= p.end {
			n++
		}
	}
	return float64(n) / (float64(p.end-p.start) / 1e9)
}

// saturatedRate is the median over the window's 100 ms slices of the
// writes answered per second.
func (p *servePhase) saturatedRate() float64 {
	const slice = int64(100 * time.Millisecond)
	counts := make([]float64, (p.end-p.start)/slice)
	for _, w := range p.writes {
		if i := (w.end - p.start) / slice; w.end > p.start && i < int64(len(counts)) {
			counts[i] += float64(time.Second) / float64(slice)
		}
	}
	return median(counts)
}

// tail prints the highest percentile of xs that has ten samples beyond
// it.
func tail(xs []float64) string {
	if len(xs) < 20 {
		return "n/a"
	}
	q := 1 - 10/float64(len(xs))
	return fmt.Sprintf("p%.2f %.3f ms (%d samples)", 100*q, quantile(xs, q), len(xs))
}

func latenciesMs(recs []reqRec) []float64 {
	out := make([]float64, 0, len(recs))
	for i := range recs {
		out = append(out, float64(recs[i].latency())/1e6)
	}
	return out
}

func countFailed(recs []reqRec) int {
	f := 0
	for i := range recs {
		if recs[i].failed() {
			f++
		}
	}
	return f
}

func runServeMixed(o options) (*outcome, error) {
	tr := newTracer()
	st, setup, err := setupStacks(setupReps, func() *graph.CSR { return graph.StreamedRing(serveNodes) }, o.seed, o.dir, tr)
	if err != nil {
		return nil, err
	}
	refDur, stepDur := 0.6*o.seconds, 0.1*o.seconds
	if o.trace {
		refDur = o.seconds / 2
	}
	const doublings = 5
	writesNeeded := 2*int(serveWriteRate*refDur) + int(float64(1<<(doublings+1)-2)*serveWriteRate*stepDur) + 1
	readsNeeded := 2*int(serveReadRate*refDur) + int(doublings*serveReadRate*stepDur) + 1
	run := &serveRun{
		tr:        tr,
		wc:        newClient(st.addr, tr),
		rc:        newClient(st.addr, tr),
		bodies:    make([][]byte, writesNeeded),
		readNodes: zipfNodes(serveNodes, readsNeeded, o.seed),
	}
	gen := newOpGen(st.base, st.space, 1, 0, o.seed)
	for i := range run.bodies {
		run.bodies[i] = gen.body(1, 0)
	}
	defer run.wc.close()
	defer run.rc.close()

	out := newOutcome()
	warmDur := serveWarmupShare * o.seconds
	all := []servePhase{run.phase(serveWriteRate, warmDur, false)}
	cpu0 := cpuSeconds()
	ref := run.phase(serveWriteRate, refDur-warmDur, !o.trace)
	refCPU := cpuSeconds() - cpu0
	all = append(all, ref)
	var traced servePhase
	var ladderMax float64
	if o.trace {
		tr.on.Store(true)
		traced = run.phase(serveWriteRate, o.seconds-refDur, false)
		tr.on.Store(false)
		all = append(all, traced)
	} else {
		// A step can saturate on a passing disturbance with its rate
		// barely above capacity; the step after it is deep in
		// saturation, where the answered rate is the capacity.
		p, saturated := ref, out.step(ref)
		for i := 0; i < doublings; i++ {
			p = run.phase(2*p.rate, stepDur, true)
			all = append(all, p)
			grows := out.step(p)
			if saturated {
				break
			}
			saturated = grows
		}
		ladderMax = p.saturatedRate()
	}
	// The peak is read after the ladder. At the reference rate it
	// depends on whether the window's one checkpoint meets a collection
	// in progress: over ten runs it read 107 or 137 MiB and spread 0.19
	// (interquartile range over median). The ladder's thousands of
	// writes meet every phase of the collector.
	rss := peakRSSMiB()
	fin := captureFinal(st)
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("closing the stack: %w", err)
	}

	var writes, reads []reqRec
	for _, p := range all {
		writes = append(writes, p.writes...)
		reads = append(reads, p.reads...)
	}
	out.attempted = len(writes) + len(reads)
	out.failed = countFailed(writes) + countFailed(reads)
	freeMemory()
	rp, err := replayAndCheck(st, fin, func(rec *reqRec) []byte { return run.bodies[rec.body] }, writes, reads, o.trace)
	if err != nil {
		return nil, err
	}

	refW, refR := latenciesMs(ref.writes), latenciesMs(ref.reads)
	out.notef("reference %.0f writes/s + %.0f reads/s: %d writes, %d reads, %d failed, write p50 %.3f ms, read p50 %.3f ms",
		serveWriteRate, serveReadRate, len(ref.writes), len(ref.reads), countFailed(ref.writes)+countFailed(ref.reads), quantile(refW, 0.5), quantile(refR, 0.5))
	// The tails are printed, not reported as metrics: over ten runs on
	// a shared 2-CPU machine at 10⁶ nodes the spread of the write and
	// read p99 was wider than the largest regression bound a metric may
	// have.
	out.notef("write tail %s, read tail %s", tail(refW), tail(refR))
	if !o.trace {
		out.notef("write_rate_max %.1f writes/s", ladderMax)
	}
	if !o.trace {
		out.metric("setup_s", setup["setup_s"], "s")
		out.metric("peak_rss_mb", rss, "MiB")
		out.metric("cpu_ms_per_op", 1e3*refCPU/float64(len(ref.writes)+len(ref.reads)), "ms")
		return out, nil
	}
	tw := latenciesMs(traced.writes)
	late, connWait := genStats(traced.writes)
	out.metric("gen.late_ms_p99", quantile(late, 0.99), "ms")
	out.metric("gen.conn_wait_ms_p99", quantile(connWait, 0.99), "ms")
	out.metric("trace.overhead_ratio", quantile(tw, 0.5)/quantile(refW, 0.5), "ratio")
	if err := traceService(out, o, tr, fin, rp, traced.writes, traced.reads, setup); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	return out, nil
}

// step reports whether a ladder step saturated the service, and notes
// how the step went.
func (o *outcome) step(p servePhase) bool {
	late, _ := genStats(p.writes)
	lat := latenciesMs(p.writes)
	grows := p.backlogGrows()
	o.notef("ladder %4.0f writes/s: sent %d/%d, answered %.1f/s, %d failed, write p50 %.2f ms p99 %.2f ms, gen late p99 %.2f ms, backlog grows %v",
		p.rate, len(p.writes), len(p.offered), p.answeredRate(), countFailed(p.writes), quantile(lat, 0.5), quantile(lat, 0.99), quantile(late, 0.99), grows)
	return grows
}
