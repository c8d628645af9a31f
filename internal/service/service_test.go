package service

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/repair"
)

// palInstance builds the shared-palette proper instance the churn
// tests use: every node may take any color in [0, space) with zero
// defect budget, so validity = proper coloring and feasibility holds
// while degrees stay below space.
func palInstance(n, space int) *coloring.Instance {
	full := make([]int, space)
	for i := range full {
		full[i] = i
	}
	zeros := make([]int, space)
	inst := &coloring.Instance{Space: space, Lists: make([][]int, n), Defects: make([][]int, n)}
	for v := 0; v < n; v++ {
		inst.Lists[v] = full
		inst.Defects[v] = zeros
	}
	return inst
}

func mustService(t *testing.T, base *graph.CSR, inst *coloring.Instance, opts Options) *Service {
	t.Helper()
	s, err := New(base, inst, nil, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestServiceLifecycle(t *testing.T) {
	s := mustService(t, graph.StreamedRing(12), palInstance(12, 4), Options{})
	if err := s.ValidateState(); err != nil {
		t.Fatalf("initial state invalid: %v", err)
	}
	if c, ver, ok := s.Color(3); !ok || ver != 0 || c < 0 || c >= 4 {
		t.Fatalf("Color(3) = (%d, %d, %v)", c, ver, ok)
	}
	if _, _, ok := s.Color(12); ok {
		t.Fatal("Color(12) accepted an unknown node")
	}

	rep, err := s.ApplyBatch([]Op{
		{Action: OpAddEdge, U: 0, V: 6},
		{Action: OpAddEdge, U: 3, V: 9},
		{Action: OpRemoveEdge, U: 1, V: 2},
	})
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if rep.Applied != 3 || rep.Dirty != 6 || !rep.Converged || rep.Version != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if err := s.ValidateState(); err != nil {
		t.Fatalf("state invalid after batch: %v", err)
	}
	snap := s.Snapshot()
	if snap.Version != 1 || len(snap.Colors) != 12 {
		t.Fatalf("snapshot = version %d, %d colors", snap.Version, len(snap.Colors))
	}
	cs, ver, ok := s.ColorsOf([]int{0, 6, 3, 9})
	if !ok || ver != 1 || len(cs) != 4 {
		t.Fatalf("ColorsOf = (%v, %d, %v)", cs, ver, ok)
	}
	if cs[0] == cs[1] || cs[2] == cs[3] {
		t.Fatalf("inserted edges still monochromatic: %v", cs)
	}

	st := s.Stats()
	if st.Batches != 1 || st.Updates != 3 || st.Edges != 12+2-1 || st.Nodes != 12 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServiceNodeChurn(t *testing.T) {
	s := mustService(t, graph.StreamedRing(8), palInstance(8, 4), Options{})
	rep, err := s.ApplyBatch([]Op{
		{Action: OpAddNode},
		{Action: OpAddNode, List: []int{1, 2}, Defects: []int{0, 0}},
	})
	if err != nil {
		t.Fatalf("add nodes: %v", err)
	}
	if !reflect.DeepEqual(rep.NewNodes, []int{8, 9}) {
		t.Fatalf("NewNodes = %v", rep.NewNodes)
	}
	if s.N() != 10 {
		t.Fatalf("N = %d", s.N())
	}
	if _, err := s.ApplyBatch([]Op{
		{Action: OpAddEdge, U: 8, V: 0},
		{Action: OpAddEdge, U: 9, V: 8},
		{Action: OpAddEdge, U: 9, V: 1},
	}); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := s.ValidateState(); err != nil {
		t.Fatalf("after attach: %v", err)
	}
	if c, _, ok := s.Color(9); !ok || (c != 1 && c != 2) {
		t.Fatalf("node 9 color %d outside its custom list", c)
	}

	rep, err = s.ApplyBatch([]Op{{Action: OpRemoveNode, Node: 8}})
	if err != nil {
		t.Fatalf("remove node: %v", err)
	}
	if rep.Dirty != 3 { // 8 and its former neighbors 0, 9
		t.Fatalf("remove-node dirty = %d, want 3", rep.Dirty)
	}
	if err := s.ValidateState(); err != nil {
		t.Fatalf("after remove: %v", err)
	}

	// set_list forces a recolor when the current color leaves the list;
	// the unsorted input also exercises list normalization.
	c9, _, _ := s.Color(9)
	newList := []int{3, 3 - c9} // excludes the current color (1 or 2)
	rep, err = s.ApplyBatch([]Op{{Action: OpSetList, Node: 9, List: newList}})
	if err != nil {
		t.Fatalf("set_list: %v", err)
	}
	if rep.Hard != 1 || rep.Recolored < 1 || !rep.Converged {
		t.Fatalf("set_list report = %+v", rep)
	}
	if c, _, _ := s.Color(9); c != newList[0] && c != newList[1] {
		t.Fatalf("node 9 color %d after list change to %v", c, newList)
	}
}

func TestServiceBatchRejection(t *testing.T) {
	s := mustService(t, graph.StreamedRing(10), palInstance(10, 4), Options{})
	rep, err := s.ApplyBatch([]Op{
		{Action: OpAddEdge, U: 0, V: 5},
		{Action: OpAddEdge, U: 2, V: 2}, // self-loop: rejected
		{Action: OpAddEdge, U: 1, V: 6}, // never applied
	})
	if !errors.Is(err, ErrOp) {
		t.Fatalf("err = %v, want ErrOp", err)
	}
	if rep.Applied != 1 || rep.Version != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if err := s.ValidateState(); err != nil {
		t.Fatalf("state invalid after rejected batch: %v", err)
	}
	st := s.Stats()
	if st.Updates != 1 || st.Rejected != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// The accepted prefix is live, the suffix is not.
	cs, _, _ := s.ColorsOf([]int{1, 6})
	_ = cs
	for _, bad := range [][]Op{
		{{Action: "nonsense"}},
		{{Action: OpRemoveEdge, U: 1, V: 6}},
		{{Action: OpSetList, Node: 3, List: []int{99}}},
		{{Action: OpSetList, Node: 3, List: []int{1}, Defects: []int{0, 0}}},
		{{Action: OpSetList, Node: 3, List: []int{1}, Defects: []int{-1}}},
		{{Action: OpSetList, Node: 3, List: []int{1, 1}}},
		{{Action: OpRemoveNode, Node: 77}},
	} {
		if _, err := s.ApplyBatch(bad); !errors.Is(err, ErrOp) {
			t.Errorf("ops %+v: err = %v, want ErrOp", bad, err)
		}
	}
}

func TestServiceCompaction(t *testing.T) {
	s := mustService(t, graph.StreamedRing(64), palInstance(64, 5), Options{CompactThreshold: 8})
	rng := rand.New(rand.NewSource(2))
	sawCompact := false
	for b := 0; b < 10; b++ {
		var ops []Op
		for i := 0; i < 6; i++ {
			u, v := rng.Intn(64), rng.Intn(64)
			if u == v || s.ov.HasEdge(u, v) || s.ov.Degree(u) >= 3 || s.ov.Degree(v) >= 3 {
				continue
			}
			ops = append(ops, Op{Action: OpAddEdge, U: u, V: v})
		}
		rep, err := s.ApplyBatch(ops)
		if err != nil && !errors.Is(err, ErrOp) {
			t.Fatalf("batch %d: %v", b, err)
		}
		if rep.Compacted {
			sawCompact = true
		}
		if err := s.ValidateState(); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	if !sawCompact {
		t.Fatal("compaction never triggered at threshold 8")
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("compactions not counted")
	}
}

// TestServiceDifferentialGlobalRepair is the churn locality contract
// (the tentpole's correctness argument): for random batches, the
// service's incremental post-repair coloring — HealLocal seeded only
// at the dirty set — must be byte-identical to repairing the *whole*
// mutated graph from the same pre-batch coloring with the global
// full-scan solver, whenever repair reports zero hard-conflict
// fallbacks. The reference replays each batch on its own overlay +
// instance and runs repair.Heal.
func TestServiceDifferentialGlobalRepair(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		base := graph.StreamedGNP(50, 0.08, seed)
		space := 2*base.RawMaxDegree() + 10
		inst := palInstance(50, space)
		s := mustService(t, base, inst, Options{})

		ref := graph.NewOverlay(base)
		refInst := inst.Clone()
		refColors := append([]int(nil), s.Snapshot().Colors...)

		rng := rand.New(rand.NewSource(seed * 131))
		for batch := 0; batch < 25; batch++ {
			var ops []Op
			for i := 0; i < 4; i++ {
				switch k := rng.Intn(10); {
				case k < 5:
					u, v := rng.Intn(s.N()), rng.Intn(s.N())
					if u != v && !ref.HasEdge(u, v) &&
						ref.Degree(u) < space-2 && ref.Degree(v) < space-2 {
						ops = append(ops, Op{Action: OpAddEdge, U: u, V: v})
					}
				case k < 8:
					u := rng.Intn(s.N())
					row := ref.Neighbors(u)
					if len(row) > 0 {
						ops = append(ops, Op{Action: OpRemoveEdge, U: u, V: row[rng.Intn(len(row))]})
					}
				case k < 9:
					ops = append(ops, Op{Action: OpAddNode})
				default:
					v := rng.Intn(s.N())
					list := []int{rng.Intn(space), space - 1 - rng.Intn(space/2)}
					if list[0] == list[1] {
						list = list[:1]
					}
					ops = append(ops, Op{Action: OpSetList, Node: v, List: list})
				}
			}
			rep, err := s.ApplyBatch(ops)
			if err != nil {
				t.Fatalf("seed %d batch %d: %v (ops %+v)", seed, batch, err, ops)
			}

			// Replay on the reference state.
			for _, op := range ops {
				switch op.Action {
				case OpAddEdge:
					if err := ref.AddEdge(op.U, op.V); err != nil {
						t.Fatalf("ref AddEdge: %v", err)
					}
				case OpRemoveEdge:
					if !ref.RemoveEdge(op.U, op.V) {
						t.Fatalf("ref RemoveEdge {%d,%d} absent", op.U, op.V)
					}
				case OpAddNode:
					ref.AddNode()
					full := make([]int, space)
					for i := range full {
						full[i] = i
					}
					refInst.Lists = append(refInst.Lists, full)
					refInst.Defects = append(refInst.Defects, make([]int, space))
					refColors = append(refColors, full[0])
				case OpSetList:
					// Mirror the service's list normalization.
					sorted := append([]int(nil), op.List...)
					sort.Ints(sorted)
					refInst.Lists[op.Node] = sorted
					refInst.Defects[op.Node] = make([]int, len(sorted))
				}
			}
			hr := repair.Heal(ref, refInst, refColors, repair.HealOptions{})
			if rep.Fallbacks == 0 {
				if !reflect.DeepEqual(refColors, s.Snapshot().Colors) {
					t.Fatalf("seed %d batch %d: incremental coloring diverges from global repair", seed, batch)
				}
				if !hr.Converged || !rep.Converged {
					t.Fatalf("seed %d batch %d: converged local=%v global=%v", seed, batch, rep.Converged, hr.Converged)
				}
			}
			if err := s.ValidateState(); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
		}
	}
}

// TestServiceConcurrentReadWrite is the race soak CI runs with -race
// -count 2: one writer applying batches, several lock-free readers
// checking snapshot self-consistency (colors array intact, versions
// monotone) plus stats reads.
func TestServiceConcurrentReadWrite(t *testing.T) {
	const n = 2000
	s := mustService(t, graph.StreamedRing(n), palInstance(n, 6), Options{})
	var stop atomic.Bool
	var wg sync.WaitGroup

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			lastVer := uint64(0)
			for !stop.Load() {
				snap := s.Snapshot()
				if snap.Version < lastVer {
					t.Errorf("reader %d: version went backwards %d -> %d", r, lastVer, snap.Version)
					return
				}
				lastVer = snap.Version
				if len(snap.Colors) < n {
					t.Errorf("reader %d: snapshot shrank to %d", r, len(snap.Colors))
					return
				}
				v := rng.Intn(n)
				if c, _, ok := s.Color(v); !ok || c < 0 || c >= 6 {
					t.Errorf("reader %d: Color(%d) = (%d, %v)", r, v, c, ok)
					return
				}
				_ = s.Stats()
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(7))
	for b := 0; b < 60; b++ {
		var ops []Op
		for i := 0; i < 20; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if s.ov.HasEdge(u, v) {
				ops = append(ops, Op{Action: OpRemoveEdge, U: u, V: v})
			} else if s.ov.Degree(u) < 4 && s.ov.Degree(v) < 4 {
				ops = append(ops, Op{Action: OpAddEdge, U: u, V: v})
			}
		}
		if _, err := s.ApplyBatch(ops); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := s.ValidateState(); err != nil {
		t.Fatal(err)
	}
}

// slackInstance builds an instance sized to the topology: palette
// space maxdeg+4 (so a conflict-minimizing recolor always has room)
// with a uniform defect budget of 1 — enough slack that the initial
// Heal converges on every generator, and enough pressure that churn
// produces real hard conflicts and recolors.
func slackInstance(base *graph.CSR) *coloring.Instance {
	maxDeg := 0
	for v := 0; v < base.N(); v++ {
		if d := base.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	space := maxDeg + 4
	full := make([]int, space)
	for i := range full {
		full[i] = i
	}
	ones := make([]int, space)
	for i := range ones {
		ones[i] = 1
	}
	inst := &coloring.Instance{Space: space, Lists: make([][]int, base.N()), Defects: make([][]int, base.N())}
	for v := 0; v < base.N(); v++ {
		inst.Lists[v] = full
		inst.Defects[v] = ones
	}
	return inst
}

// churnMirror tracks the topology a generated script produces, so op
// generation is deterministic and independent of any service state.
type churnMirror struct {
	n   int
	adj []map[int]bool
}

func newChurnMirror(base *graph.CSR) *churnMirror {
	m := &churnMirror{n: base.N(), adj: make([]map[int]bool, base.N())}
	for v := 0; v < base.N(); v++ {
		m.adj[v] = make(map[int]bool)
		for _, u := range base.Row(v) {
			m.adj[v][u] = true
		}
	}
	return m
}

// nextWithEdges scans deterministically from u for a node with at
// least one incident edge (-1 if the graph is empty).
func (m *churnMirror) nextWithEdges(u int) int {
	for d := 0; d < m.n; d++ {
		v := (u + d) % m.n
		if len(m.adj[v]) > 0 {
			return v
		}
	}
	return -1
}

// smallestNeighbor returns min(adj[u]) by deterministic scan (map
// iteration order must never leak into the script).
func (m *churnMirror) smallestNeighbor(u int) int {
	for d := 1; d < m.n; d++ {
		v := (u + d) % m.n
		if m.adj[u][v] {
			return v
		}
	}
	return -1
}

// churnScript generates a deterministic batched op stream: mostly
// spatially local edge churn (offsets ≤ 8), plus long-range edges,
// node add/remove, and set_list — order-sensitive traffic whose
// replay must be exact.
func churnScript(base *graph.CSR, batches, batchSize int, seed int64) [][]Op {
	rng := rand.New(rand.NewSource(seed))
	m := newChurnMirror(base)
	script := make([][]Op, 0, batches)
	for b := 0; b < batches; b++ {
		ops := make([]Op, 0, batchSize)
		for len(ops) < batchSize {
			switch r := rng.Intn(100); {
			case r < 50: // local add_edge
				u := rng.Intn(m.n)
				v := (u + 1 + rng.Intn(8)) % m.n
				if u == v || m.adj[u][v] {
					continue
				}
				m.adj[u][v], m.adj[v][u] = true, true
				ops = append(ops, Op{Action: OpAddEdge, U: u, V: v})
			case r < 60: // long-range add_edge (usually cross-region)
				u := rng.Intn(m.n)
				v := (u + m.n/2 + rng.Intn(8)) % m.n
				if u == v || m.adj[u][v] {
					continue
				}
				m.adj[u][v], m.adj[v][u] = true, true
				ops = append(ops, Op{Action: OpAddEdge, U: u, V: v})
			case r < 80: // remove_edge
				u := m.nextWithEdges(rng.Intn(m.n))
				if u < 0 {
					continue
				}
				v := m.smallestNeighbor(u)
				delete(m.adj[u], v)
				delete(m.adj[v], u)
				ops = append(ops, Op{Action: OpRemoveEdge, U: u, V: v})
			case r < 85: // add_node (default full-palette list)
				m.adj = append(m.adj, make(map[int]bool))
				m.n++
				ops = append(ops, Op{Action: OpAddNode})
			case r < 92: // remove_node
				u := m.nextWithEdges(rng.Intn(m.n))
				if u < 0 {
					continue
				}
				for v := range m.adj[u] {
					delete(m.adj[v], u)
				}
				m.adj[u] = make(map[int]bool)
				ops = append(ops, Op{Action: OpRemoveNode, Node: u})
			default: // set_list: bump the node's defect budget
				u := rng.Intn(m.n)
				ops = append(ops, Op{Action: OpSetList, Node: u})
			}
		}
		script = append(script, ops)
	}
	return script
}

// fillSetLists completes set_list ops with the instance's palette (a
// full list, defect budget 2 — a slack bump the repair schedule
// must account identically on every replay).
func fillSetLists(script [][]Op, space int) {
	full := make([]int, space)
	for i := range full {
		full[i] = i
	}
	twos := make([]int, space)
	for i := range twos {
		twos[i] = 2
	}
	for _, ops := range script {
		for i := range ops {
			if ops[i].Action == OpSetList {
				ops[i].List = full
				ops[i].Defects = twos
			}
		}
	}
}

// TestSnapshotReadsLockFree pins the read-path contract: Stats,
// HasEdge, DegreeOf, Color, and ColorsOf are served from the atomic
// snapshot and never take the writer lock — calling them while the
// lock is held must not deadlock.
func TestSnapshotReadsLockFree(t *testing.T) {
	s := mustService(t, graph.StreamedRing(32), palInstance(32, 4), Options{})
	if _, err := s.ApplyBatch([]Op{{Action: OpAddEdge, U: 0, V: 2}}); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}

	s.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if !s.HasEdge(0, 2) {
			t.Error("HasEdge(0,2) = false after insert")
		}
		if d := s.DegreeOf(0); d != 3 {
			t.Errorf("DegreeOf(0) = %d, want 3", d)
		}
		if st := s.Stats(); st.Updates != 1 {
			t.Errorf("Stats().Updates = %d, want 1", st.Updates)
		}
		if _, _, ok := s.Color(0); !ok {
			t.Error("Color(0) not ok")
		}
		if _, _, ok := s.ColorsOf([]int{0, 1}); !ok {
			t.Error("ColorsOf not ok")
		}
	}()
	<-done
	s.mu.Unlock()
}

// TestServiceConcurrentChurnReadWrite is the -race soak for the full
// op mix: the single writer applies churn batches (edge, node, and
// set_list ops) with a small compaction threshold while reader
// goroutines hammer the snapshot endpoints, including topology reads
// through the published TopoView chain across background compaction
// swaps.
func TestServiceConcurrentChurnReadWrite(t *testing.T) {
	const n = 600
	base := graph.StreamedRing(n)
	inst := slackInstance(base)
	s := mustService(t, base, inst, Options{CompactThreshold: 32})
	script := churnScript(base, 30, 8, 99)
	fillSetLists(script, inst.Space)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := i % s.N()
				s.Color(v)
				s.HasEdge(v, (v+1)%n)
				s.DegreeOf(v)
				s.Stats()
				s.ColorsOf([]int{v, (v + 7) % n})
				snap := s.Snapshot()
				if snap.Topo.N() != len(snap.Colors) {
					t.Errorf("snapshot topo n=%d vs %d colors", snap.Topo.N(), len(snap.Colors))
					return
				}
				i++
			}
		}(g)
	}

	for bi, ops := range script {
		if _, err := s.ApplyBatch(ops); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := s.ValidateState(); err != nil {
		t.Fatalf("final state invalid: %v", err)
	}
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatal("soak never swapped in a background compaction")
	}
}

// benchReads is the read mix the lock-contention satellite measures:
// previously Stats/HasEdge/DegreeOf took the writer lock and stalled
// behind ApplyBatch; now all three serve from the atomic snapshot.
func benchReads(s *Service, i, n int) int {
	v := i % n
	sink := 0
	if s.HasEdge(v, (v+1)%n) {
		sink++
	}
	sink += s.DegreeOf(v)
	sink += int(s.Stats().Updates)
	return sink
}

// BenchmarkSnapshotReadsIdleWriter is the baseline read cost with no
// writer traffic.
func BenchmarkSnapshotReadsIdleWriter(b *testing.B) {
	const n = 4096
	base := graph.StreamedRing(n)
	s, err := New(base, palInstance(n, 4), nil, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += benchReads(s, i, n)
	}
	_ = sink
}

// BenchmarkSnapshotReadsBusyWriter is the same read mix while a
// writer applies churn batches flat out. With lock-served reads this
// degraded by the writer's batch occupancy (multi-millisecond
// stalls); with snapshot-served reads the per-read cost stays within
// a small constant of the idle baseline.
func BenchmarkSnapshotReadsBusyWriter(b *testing.B) {
	const n = 4096
	base := graph.StreamedRing(n)
	inst := slackInstance(base)
	s, err := New(base, inst, nil, Options{})
	if err != nil {
		b.Fatal(err)
	}
	script := churnScript(base, 64, 32, 1)
	fillSetLists(script, inst.Space)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = s.ApplyBatch(script[i%len(script)])
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += benchReads(s, i, n)
	}
	b.StopTimer()
	close(stop)
	<-done
	_ = sink
}

// TestBackgroundCompactionSwap pins the off-critical-path compaction
// protocol: the launch batch reports Compacted, the swap happens at
// the next batch boundary (patch count drops to the rows mutated
// since the freeze), and reads through the rebased snapshot stay
// correct.
func TestBackgroundCompactionSwap(t *testing.T) {
	base := graph.StreamedRing(64)
	s := mustService(t, base, palInstance(64, 5), Options{CompactThreshold: 8})

	var launched bool
	for i := 0; i < 12 && !launched; i++ {
		u := (3 * i) % 64
		rep, err := s.ApplyBatch([]Op{
			{Action: OpAddEdge, U: u, V: (u + 5) % 64},
			{Action: OpAddEdge, U: (u + 11) % 64, V: (u + 17) % 64},
		})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		launched = rep.Compacted
	}
	if !launched {
		t.Fatal("compaction never launched")
	}
	if got := s.Stats().Compactions; got != 1 {
		t.Fatalf("Compactions = %d, want 1", got)
	}
	patchedAtLaunch := s.Stats().Patched
	if patchedAtLaunch <= 8 {
		t.Fatalf("patched = %d at launch, want > threshold", patchedAtLaunch)
	}

	// The next batch blocks on the builder, rebases, and the patch map
	// keeps only the rows this batch (and any post-freeze churn)
	// touched.
	if _, err := s.ApplyBatch([]Op{{Action: OpAddEdge, U: 1, V: 30}}); err != nil {
		t.Fatalf("swap batch: %v", err)
	}
	if got := s.Stats().Patched; got >= patchedAtLaunch {
		t.Fatalf("patched = %d after swap, want < %d", got, patchedAtLaunch)
	}
	if !s.HasEdge(1, 30) {
		t.Fatal("post-swap snapshot lost the new edge")
	}
	if !s.HasEdge(0, 5) && !s.HasEdge(3, 8) {
		// edges from the pre-compaction churn must survive the rebase
		t.Fatal("post-swap snapshot lost pre-compaction edges")
	}
	if err := s.ValidateState(); err != nil {
		t.Fatalf("post-swap state invalid: %v", err)
	}
}
