package main

import (
	"fmt"
	"sync"

	"listcolor/internal/graph"
)

// ingest-bulk: closed loop of two clients on a streamed power-law graph
// (n = 2·10⁵, k = 3). Each request is a 1000-op batch of edge inserts
// and deletes biased to hubs plus a share of set_list ops. Each client
// generates its next batch before it sends it; the replay regenerates
// the same batches from the seed.
const (
	ingestNodes     = 200_000
	ingestK         = 3
	ingestClients   = 2
	ingestBatchOps  = 1000
	ingestListShare = 0.05
)

type ingestRun struct {
	tr      *tracer
	st      *stack
	seed    int64
	clients []*client
	gens    []*opGen
	sent    []int // batches each client has sent
}

func (r *ingestRun) newGens() []*opGen {
	gens := make([]*opGen, ingestClients)
	for c := range gens {
		gens[c] = newOpGen(r.st.base, r.st.space, ingestClients, c, r.seed)
	}
	return gens
}

// phase runs the clients for dur seconds, each sending its next batch as
// soon as the previous one is answered.
func (r *ingestRun) phase(dur float64) []reqRec {
	deadline := r.tr.now() + int64(dur*1e9)
	recs := make([][]reqRec, len(r.clients))
	var wg sync.WaitGroup
	for c := range r.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r.tr.now() < deadline {
				body := r.gens[c].body(ingestBatchOps, ingestListShare)
				rec := reqRec{client: c, body: r.sent[c]}
				r.clients[c].write(&rec, body)
				rec.due = rec.start
				recs[c] = append(recs[c], rec)
				r.sent[c]++
			}
		}(c)
	}
	wg.Wait()
	var all []reqRec
	for c := range recs {
		all = append(all, recs[c]...)
	}
	return all
}

// throughput is applied ops per second from the first send to the last
// answer.
func throughput(recs []reqRec) float64 {
	if len(recs) == 0 {
		return 0
	}
	first, last, ops := recs[0].start, recs[0].end, 0
	for _, r := range recs {
		first = min(first, r.start)
		last = max(last, r.end)
		ops += r.ops
	}
	return float64(ops) / (float64(last-first) / 1e9)
}

func runIngestBulk(o options) (*outcome, error) {
	tr := newTracer()
	build := func() *graph.CSR { return graph.StreamedPowerLaw(ingestNodes, ingestK, o.seed) }
	st, setup, err := setupStacks(setupReps, build, o.seed, o.dir, tr)
	if err != nil {
		return nil, err
	}
	run := &ingestRun{tr: tr, st: st, seed: o.seed, sent: make([]int, ingestClients)}
	run.gens = run.newGens()
	for c := 0; c < ingestClients; c++ {
		run.clients = append(run.clients, newClient(st.addr, tr))
		defer run.clients[c].close()
	}

	out := newOutcome()
	untracedDur := o.seconds
	if o.trace {
		untracedDur = o.seconds / 2
	}
	warm := run.phase(warmupShare * untracedDur)
	cpu0 := cpuSeconds()
	measured := run.phase((1 - warmupShare) * untracedDur)
	measuredCPU := cpuSeconds() - cpu0
	untraced := append(warm, measured...)
	var traced []reqRec
	if o.trace {
		tr.on.Store(true)
		traced = run.phase(o.seconds - untracedDur)
		tr.on.Store(false)
	}
	rss := peakRSSMiB()
	fin := captureFinal(st)
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("closing the stack: %w", err)
	}
	writes := append(append([]reqRec(nil), untraced...), traced...)
	out.attempted = len(writes)
	out.failed = countFailed(writes)
	freeMemory()

	// The replay asks for bodies in version order, which keeps each
	// client's own order, so fresh generators reproduce them in turn.
	gens, next := run.newGens(), make([]int, ingestClients)
	var genErr error
	bodies := func(rec *reqRec) []byte {
		if rec.body != next[rec.client] && genErr == nil {
			genErr = fmt.Errorf("client %d batch %d applied out of its order", rec.client, rec.body)
		}
		next[rec.client]++
		return gens[rec.client].body(ingestBatchOps, ingestListShare)
	}
	rp, err := replayAndCheck(st, fin, bodies, writes, nil, o.trace)
	if err == nil {
		err = genErr
	}
	if err != nil {
		return nil, err
	}

	lat := latenciesMs(measured)
	out.notef("closed loop, %d clients: %d batches of %d ops, %d measured after the warm-up, %.0f updates/s, batch p50 %.3f ms, %s",
		ingestClients, len(untraced), ingestBatchOps, len(measured), throughput(measured), quantile(lat, 0.5), tail(lat))
	if !o.trace {
		out.metric("setup_s", setup["setup_s"], "s")
		out.metric("peak_rss_mb", rss, "MiB")
		out.metric("cpu_ms_per_op", 1e3*measuredCPU/float64(len(measured)), "ms")
		return out, nil
	}
	out.metric("trace.overhead_ratio", quantile(latenciesMs(traced), 0.5)/quantile(lat, 0.5), "ratio")
	if err := traceService(out, o, tr, fin, rp, traced, nil, setup); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	return out, nil
}
