package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/service"
)

// The service stack is assembled as cmd/colord assembles it in server
// mode with its default flags: a durable service with SyncBatch and a
// checkpoint every 256 batches, an ingest queue of 256, the default
// handler limits, and colord's hardened http.Server timeouts.
const (
	paletteHeadroom = 4
	checkpointEvery = 256
	queueCapacity   = 256
)

// listInstance gives node v deg(v)+4 colors, zero defect budgets, from
// the palette [0, Δ+4). On a regular graph that is colord's shared full
// palette. colord's shared palette on a power-law graph would hold
// Δ+4 colors per node, and Service.New clones every list: 3 GB at
// n = 2·10⁵ with hubs of degree ~1000. The lists are drawn from seed.
func listInstance(base *graph.CSR, seed int64) *coloring.Instance {
	space := base.RawMaxDegree() + paletteHeadroom
	n := base.N()
	full := make([]int, space)
	for i := range full {
		full[i] = i
	}
	inst := &coloring.Instance{Space: space, Lists: make([][]int, n), Defects: make([][]int, n)}
	rng := rand.New(rand.NewSource(seed*31 + 7))
	zeros := make([]int, space)
	for v := 0; v < n; v++ {
		k := base.Degree(v) + paletteHeadroom
		if k >= space {
			inst.Lists[v] = full
		} else {
			inst.Lists[v] = sampleSorted(rng, space, k)
		}
		inst.Defects[v] = zeros[:len(inst.Lists[v])]
	}
	return inst
}

// sampleSorted draws k distinct colors from [0, space), ascending.
func sampleSorted(rng *rand.Rand, space, k int) []int {
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		if x := rng.Intn(space); !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

// stack is one running service stack behind a loopback listener.
type stack struct {
	base    *graph.CSR
	inst    *coloring.Instance
	space   int
	seed    int64 // of the lists
	dir     string
	durable *service.Durable
	ingest  *service.Ingest
	srv     *http.Server
	addr    string
	served  chan error

	// Wall times of the set-up's stages, and the CPU time of the whole
	// set-up, in seconds.
	graphS, instanceS, initS, checkpoint0S float64
	cpuS                                   float64

	tracer *tracer // spans are recorded while tracer.on is set
}

// buildStack sets up the stack over the graph build returns, with its
// data directory under dir. The listener binds 127.0.0.1:0.
func buildStack(build func() *graph.CSR, seed int64, dir string, tr *tracer) (*stack, error) {
	st := &stack{dir: dir, seed: seed, tracer: tr}
	cpu0 := cpuSeconds()
	t := time.Now()
	st.base = build()
	st.graphS = since(t)

	t = time.Now()
	st.inst = listInstance(st.base, seed)
	st.space = st.inst.Space
	st.instanceS = since(t)

	t = time.Now()
	svc, err := service.New(st.base, st.inst, nil, service.Options{})
	if err != nil {
		return nil, err
	}
	st.initS = since(t)

	t = time.Now()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st.durable, err = service.NewDurable(svc, service.DurableOptions{
		Dir: dir, Sync: service.SyncBatch, CheckpointEvery: checkpointEvery,
	})
	if err != nil {
		return nil, err
	}
	st.checkpoint0S = since(t)

	st.ingest = service.NewIngest(st.apply, queueCapacity)
	health := &service.Health{}
	health.SetReady()
	handler := service.NewHandlerWithOptions(svc, service.HandlerOptions{
		Ingest:  st.ingest,
		Health:  health,
		Durable: st.durable,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.ingest.Drain(context.Background())
		st.durable.Close()
		return nil, err
	}
	st.addr = ln.Addr().String()
	st.srv = &http.Server{
		Handler:           tr.middleware(handler),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	st.cpuS = cpuSeconds() - cpu0
	return st, nil
}

// apply is the ingest queue's writer: Durable.ApplyBatch, with a span
// around it while tracing.
func (st *stack) apply(ops []service.Op) (service.BatchReport, error) {
	if !st.tracer.on.Load() {
		return st.durable.ApplyBatch(ops)
	}
	ckpts := st.durable.DurabilityStats().Checkpoints
	start := st.tracer.now()
	rep, err := st.durable.ApplyBatch(ops)
	end := st.tracer.now()
	crossed := st.durable.DurabilityStats().Checkpoints > ckpts
	st.tracer.applied(start, end, rep.Version, crossed)
	return rep, err
}

// close stops the server, drains the queue and closes the durable
// service (its final checkpoint included); the data directory goes.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := st.ingest.Drain(ctx); err == nil {
		err = derr
	}
	if cerr := st.durable.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(st.dir); err == nil {
		err = rerr
	}
	st.durable, st.ingest, st.srv = nil, nil, nil
	return err
}

// setupStacks builds the stack reps times, tearing down all but the
// last, and reports the median of each set-up stage.
func setupStacks(reps int, build func() *graph.CSR, seed int64, dir string, tr *tracer) (*stack, map[string]float64, error) {
	var total, graphS, instS, initS, ckptS []float64
	var st *stack
	for i := 0; i < reps; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
			st = nil
			freeMemory()
		}
		var err error
		st, err = buildStack(build, seed, filepath.Join(dir, "data"), tr)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		total = append(total, st.cpuS)
		graphS = append(graphS, st.graphS)
		instS = append(instS, st.instanceS)
		initS = append(initS, st.initS)
		ckptS = append(ckptS, st.checkpoint0S)
	}
	// Every run starts its timed part from the same collected heap.
	freeMemory()
	return st, map[string]float64{
		"setup_s":              median(total),
		"setup.graph_s":        median(graphS),
		"setup.instance_s":     median(instS),
		"setup.service_init_s": median(initS),
		"setup.checkpoint0_s":  median(ckptS),
		"graph.build_s":        st.graphS,
	}, nil
}
