package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"listcolor/internal/coloring"
	"listcolor/internal/service"
)

// finalState is what the run left behind, captured before the stack
// closes. It holds no reference into the closed service, so the replay
// runs on a heap the size of the live run's.
type finalState struct {
	version    uint64
	colors     []int
	stats      service.Stats
	durability service.DurabilityStats
	ingest     service.IngestStats
	topoFP     uint64
}

func captureFinal(st *stack) finalState {
	svc := st.durable.Service()
	snap := svc.Snapshot()
	return finalState{
		version:    snap.Version,
		colors:     append([]int(nil), snap.Colors...),
		stats:      svc.Stats(),
		durability: st.durable.DurabilityStats(),
		ingest:     st.ingest.Stats(),
		topoFP:     svc.TopologyFingerprint(),
	}
}

// replayed is the account of the in-memory replay.
type replayed struct {
	svc     *service.Service // the replayed service, equal to the live one
	reports []service.BatchReport
	// Per batch, in version order, when timed: apply time, bytes
	// allocated during the apply, and JSON decode time of the body.
	applyNs, allocBytes, decodeNs []float64
	ops                           int
	auditS                        float64
	audit                         coloring.AuditReport
}

// decodeBody decodes a request body the way POST /v1/updates does.
func decodeBody(body []byte) ([]service.Op, error) {
	var req service.UpdateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return req.Ops, nil
}

// replayAndCheck is the correctness gate of the service workloads. It
// replays every applied batch, in version order, through a plain
// in-memory service built from the same inputs, and requires:
//
//   - the versions the clients saw are exactly 1..final, each once;
//   - every batch applies with no rejection and reports its version;
//   - every read returned the color its node had at the read's version;
//   - the final colors, topology and canonical counters equal the
//     durable service's byte for byte;
//   - the final degrees equal a model applied from the ops alone, and
//     coloring.AuditParallel finds no violation against the lists the
//     ops set (both on the replayed state, equal to the live one).
//
// With timed set, each replayed ApplyBatch is timed and its allocation
// measured; the body decode is timed on its own.
func replayAndCheck(st *stack, fin finalState, bodies func(rec *reqRec) []byte, writes, reads []reqRec, timed bool) (*replayed, error) {
	byVersion := make([]*reqRec, fin.version+1)
	for i := range writes {
		w := &writes[i]
		if w.failed() {
			continue
		}
		if w.version == 0 || w.version > fin.version || byVersion[w.version] != nil {
			return nil, fmt.Errorf("write %d reported version %d (final %d)", w.id, w.version, fin.version)
		}
		byVersion[w.version] = w
	}
	for v := uint64(1); v <= fin.version; v++ {
		if byVersion[v] == nil {
			return nil, fmt.Errorf("no client saw batch version %d", v)
		}
	}
	readsAt := append([]reqRec(nil), reads...)
	sort.SliceStable(readsAt, func(i, j int) bool { return readsAt[i].version < readsAt[j].version })

	svc, err := service.New(st.base, listInstance(st.base, st.seed), nil, service.Options{})
	if err != nil {
		return nil, fmt.Errorf("replay service: %w", err)
	}
	model := newModel(st)
	rp := &replayed{svc: svc}
	next := 0
	checkReads := func(version uint64) error {
		for ; next < len(readsAt) && readsAt[next].version <= version; next++ {
			r := &readsAt[next]
			if r.failed() {
				continue
			}
			if c, _, _ := svc.Color(r.node); c != r.color {
				return fmt.Errorf("read of node %d at version %d returned color %d, replay has %d", r.node, version, r.color, c)
			}
		}
		return nil
	}
	if err := checkReads(0); err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	for v := uint64(1); v <= fin.version; v++ {
		body := bodies(byVersion[v])
		t := time.Now()
		ops, err := decodeBody(body)
		decodeNs := float64(time.Since(t))
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", v, err)
		}
		var rep service.BatchReport
		if timed {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			t = time.Now()
			rep, err = svc.ApplyBatch(ops)
			rp.applyNs = append(rp.applyNs, float64(time.Since(t)))
			runtime.ReadMemStats(&ms)
			rp.allocBytes = append(rp.allocBytes, float64(ms.TotalAlloc-before))
			rp.decodeNs = append(rp.decodeNs, decodeNs)
		} else {
			rep, err = svc.ApplyBatch(ops)
		}
		if err != nil {
			return nil, fmt.Errorf("replaying batch %d: %w", v, err)
		}
		if rep.Version != v || rep.Applied != len(ops) {
			return nil, fmt.Errorf("replayed batch %d became version %d with %d of %d ops", v, rep.Version, rep.Applied, len(ops))
		}
		rp.reports = append(rp.reports, rep)
		rp.ops += len(ops)
		model.apply(ops)
		if err := checkReads(v); err != nil {
			return nil, err
		}
	}
	if next != len(readsAt) {
		return nil, fmt.Errorf("read at version %d is past the final version %d", readsAt[next].version, fin.version)
	}

	got := svc.Snapshot()
	if len(got.Colors) != len(fin.colors) {
		return nil, fmt.Errorf("replay has %d nodes, the service %d", len(got.Colors), len(fin.colors))
	}
	for v := range got.Colors {
		if got.Colors[v] != fin.colors[v] {
			return nil, fmt.Errorf("node %d: service color %d, replay color %d", v, fin.colors[v], got.Colors[v])
		}
	}
	if fp := svc.TopologyFingerprint(); fp != fin.topoFP {
		return nil, fmt.Errorf("topology fingerprint: service %x, replay %x", fin.topoFP, fp)
	}
	if a, b := service.CanonicalStats(fin.stats), service.CanonicalStats(svc.Stats()); fmt.Sprint(a) != fmt.Sprint(b) {
		return nil, fmt.Errorf("counters differ: service %+v, replay %+v", a, b)
	}
	if err := model.check(got); err != nil {
		return nil, err
	}
	t := time.Now()
	rp.audit = coloring.AuditParallel(got.Topo, model.inst, got.Colors, 0)
	rp.auditS = since(t)
	if err := rp.audit.Err(); err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	return rp, nil
}

// model is the expected topology degrees and lists, applied from the
// ops alone.
type model struct {
	deg  []int
	inst *coloring.Instance
}

func newModel(st *stack) *model {
	n := st.base.N()
	m := &model{deg: make([]int, n), inst: listInstance(st.base, st.seed)}
	for v := range m.deg {
		m.deg[v] = st.base.Degree(v)
	}
	return m
}

func (m *model) apply(ops []service.Op) {
	for _, op := range ops {
		switch op.Action {
		case service.OpAddEdge:
			m.deg[op.U]++
			m.deg[op.V]++
		case service.OpRemoveEdge:
			m.deg[op.U]--
			m.deg[op.V]--
		case service.OpSetList:
			m.inst.Lists[op.Node] = op.List
			m.inst.Defects[op.Node] = op.Defects
		}
	}
}

func (m *model) check(snap *service.Snapshot) error {
	if snap.Topo.N() != len(m.deg) {
		return fmt.Errorf("service has %d nodes, model %d", snap.Topo.N(), len(m.deg))
	}
	for v, d := range m.deg {
		if got := snap.Topo.Degree(v); got != d {
			return fmt.Errorf("node %d: service degree %d, model degree %d", v, got, d)
		}
	}
	return nil
}
