package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"listcolor/internal/bench"
)

// TestGraphBenchShape pins the audit section of BENCH_sim.json (the
// streamed-graph substrate rows): the quick audit bench must emit rows
// that round-trip into SimBenchReport with no unknown fields, ≥ 2 rows
// per workload, every row reporting an equal parallel audit report.
// Timing is machine-dependent and only sanity-checked; the identity
// column is the contract.
func TestGraphBenchShape(t *testing.T) {
	rows, err := bench.RunAuditBench(true)
	if err != nil {
		t.Fatalf("RunAuditBench(quick): %v", err)
	}
	raw, err := json.Marshal(bench.SimBenchReport{Audit: rows})
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var rep bench.SimBenchReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("audit section shape drifted: %v", err)
	}
	if want := 2 * len(bench.AuditWorkloads(true)); len(rep.Audit) < want { // ≥ 2 worker counts per workload
		t.Fatalf("audit has %d rows, want ≥ %d", len(rep.Audit), want)
	}
	hostW := runtime.GOMAXPROCS(0)
	for _, e := range rep.Audit {
		if !e.IdenticalToSeq {
			t.Errorf("audit %s workers=%d: parallel report diverges", e.Workload, e.Workers)
		}
		if e.Nodes <= 0 || e.Edges <= 0 || e.Workers < 2 || e.NumCPU < 1 {
			t.Errorf("audit %s: implausible row %+v", e.Workload, e)
		}
		if e.SeqSec <= 0 || e.ParSec <= 0 || e.Speedup <= 0 || e.EdgesPerSec <= 0 {
			t.Errorf("audit %s workers=%d: non-positive timing in %+v", e.Workload, e.Workers, e)
		}
		if e.Workers > 2*hostW && e.Workers != 4 {
			t.Errorf("audit %s: unexpected worker count %d for host with GOMAXPROCS=%d", e.Workload, e.Workers, hostW)
		}
	}
}
