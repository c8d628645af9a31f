package bench

// auditbench.go measures the range-partitioned defect audit
// (coloring.AuditParallel) against the sequential scan at 10⁶ nodes in
// the full tier. Every row carries the report-equality verdict and the
// host's CPU count: a speedup column means something only on a row
// measured with ≥ 2 CPUs. cmd/benchtab -sim renders the result as the
// "audit" section of BENCH_sim.json.

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
)

// AuditWorkload is one audit-benchmark instance: a streamed CSR plus
// the palette its defect scan uses.
type AuditWorkload struct {
	Name  string
	Space int
	Make  func() *graph.CSR
}

// AuditWorkloads returns the audit instances. Full mode is the
// BENCH_sim.json tier: the 10⁶-node ring and G(n, p) at average
// degree 8. Quick shrinks n to smoke-test the same code path in CI.
func AuditWorkloads(quick bool) []AuditWorkload {
	if quick {
		return []AuditWorkload{
			{Name: "ring20k", Space: 8,
				Make: func() *graph.CSR { return graph.StreamedRing(20_000) }},
			{Name: "gnp20k", Space: 16,
				Make: func() *graph.CSR { return graph.StreamedGNP(20_000, 8.0/20_000, 1) }},
		}
	}
	return []AuditWorkload{
		{Name: "ring1e6", Space: 8,
			Make: func() *graph.CSR { return graph.StreamedRing(1_000_000) }},
		{Name: "gnp1e6", Space: 16,
			Make: func() *graph.CSR { return graph.StreamedGNP(1_000_000, 8.0/1_000_000, 1) }},
	}
}

// AuditEntry is one (workload, workers) audit measurement: the
// sequential whole-graph defect scan vs the range-partitioned kernel,
// with the report-equality verdict (field-for-field, violation text
// included).
type AuditEntry struct {
	Workload       string  `json:"workload"`
	Nodes          int     `json:"nodes"`
	Edges          int64   `json:"edges"`
	Workers        int     `json:"workers"`
	NumCPU         int     `json:"num_cpu"`
	SeqSec         float64 `json:"seq_sec"`
	ParSec         float64 `json:"par_sec"`
	Speedup        float64 `json:"speedup"`
	EdgesPerSec    float64 `json:"edges_per_sec"`
	IdenticalToSeq bool    `json:"identical_to_seq"`
}

// auditBenchWorkers returns the worker counts each workload is
// measured at: 2, 4, and the host's GOMAXPROCS, deduplicated and
// sorted. All are explicit (> 1), so the parallel kernel runs even on
// a single-CPU container.
func auditBenchWorkers() []int {
	set := map[int]bool{2: true, 4: true}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		set[p] = true
	}
	out := make([]int, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// sharedPaletteInstance builds the audit instance: every node may wear
// any color in [0, space) with zero defect budget, the lists and
// budgets shared across nodes (O(space) extra memory at 10⁶ nodes).
func sharedPaletteInstance(n, space int) *coloring.Instance {
	list := make([]int, space)
	zeros := make([]int, space)
	for i := range list {
		list[i] = i
	}
	in := &coloring.Instance{Space: space, Lists: make([][]int, n), Defects: make([][]int, n)}
	for v := 0; v < n; v++ {
		in.Lists[v] = list
		in.Defects[v] = zeros
	}
	return in
}

// MeasureAudit times the sequential and parallel audits of one graph
// at one worker count and verifies the report-equality contract.
func MeasureAudit(w AuditWorkload, g *graph.CSR, workers int) (AuditEntry, error) {
	inst := sharedPaletteInstance(g.N(), w.Space)
	colors := make([]int, g.N())
	for v := range colors {
		colors[v] = v % w.Space
	}
	runtime.GC()
	t0 := time.Now()
	seqRep := coloring.Audit(g, inst, colors)
	seqSec := time.Since(t0).Seconds()
	t1 := time.Now()
	parRep := coloring.AuditParallel(g, inst, colors, workers)
	parSec := time.Since(t1).Seconds()

	e := AuditEntry{
		Workload:       w.Name,
		Nodes:          g.N(),
		Edges:          g.M(),
		Workers:        workers,
		NumCPU:         runtime.NumCPU(),
		SeqSec:         seqSec,
		ParSec:         parSec,
		Speedup:        seqSec / parSec,
		EdgesPerSec:    float64(seqRep.ScannedArcs) / 2 / parSec,
		IdenticalToSeq: coloring.AuditReportsEqual(seqRep, parRep),
	}
	if !e.IdenticalToSeq {
		return e, fmt.Errorf("bench: %s workers=%d: parallel audit report diverges from sequential", w.Name, workers)
	}
	return e, nil
}

// RunAuditBench measures every audit workload at every benchmark
// worker count, building each graph once.
func RunAuditBench(quick bool) ([]AuditEntry, error) {
	var out []AuditEntry
	for _, w := range AuditWorkloads(quick) {
		g := w.Make()
		for _, workers := range auditBenchWorkers() {
			e, err := MeasureAudit(w, g, workers)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
	}
	return out, nil
}
