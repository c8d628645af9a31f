package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestRing(t *testing.T) {
	g := Ring(5)
	if g.N() != 5 || g.M() != 5 {
		t.Fatalf("Ring(5): n=%d m=%d", g.N(), g.M())
	}
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("Ring degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPathAndComplete(t *testing.T) {
	p := Path(6)
	if p.M() != 5 {
		t.Errorf("Path(6) has %d edges, want 5", p.M())
	}
	k := Complete(6)
	if k.M() != 15 {
		t.Errorf("K6 has %d edges, want 15", k.M())
	}
	if k.RawMaxDegree() != 5 {
		t.Errorf("K6 max degree %d, want 5", k.RawMaxDegree())
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(2, 3)
	if g.N() != 5 || g.M() != 6 {
		t.Fatalf("K23: n=%d m=%d", g.N(), g.M())
	}
	if g.HasEdge(0, 1) || g.HasEdge(2, 3) {
		t.Error("intra-side edge present")
	}
	if err := IsProperColoring(g, []int{0, 0, 1, 1, 1}); err != nil {
		t.Errorf("bipartition should be proper: %v", err)
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("Grid(3,4): n=%d", g.N())
	}
	// m = rows*(cols-1) + (rows-1)*cols = 3*3 + 2*4 = 17
	if g.M() != 17 {
		t.Fatalf("Grid(3,4): m=%d, want 17", g.M())
	}
	if g.RawMaxDegree() != 4 {
		t.Errorf("Grid max degree %d, want 4", g.RawMaxDegree())
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4: n=%d m=%d, want 16, 32", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Errorf("Q4 degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	// Hypercubes are bipartite: parity coloring is proper.
	colors := make([]int, g.N())
	for v := range colors {
		x := v
		par := 0
		for x > 0 {
			par ^= x & 1
			x >>= 1
		}
		colors[v] = par
	}
	if err := IsProperColoring(g, colors); err != nil {
		t.Errorf("parity coloring of hypercube not proper: %v", err)
	}
}

func TestCompleteKaryTree(t *testing.T) {
	g := CompleteKaryTree(2, 3) // 1 + 2 + 4 = 7 vertices
	if g.N() != 7 || g.M() != 6 {
		t.Fatalf("binary tree: n=%d m=%d", g.N(), g.M())
	}
	k, _ := Degeneracy(g)
	if k != 1 {
		t.Errorf("tree degeneracy = %d, want 1", k)
	}
}

func TestRandomRegularDegrees(t *testing.T) {
	f := func(seed int64, rawN, rawD uint8) bool {
		n := int(rawN%40) + 6
		d := int(rawD%5) + 1
		if (n*d)%2 != 0 {
			n++
		}
		rng := rand.New(rand.NewSource(seed))
		g := RandomRegular(n, d, rng)
		if g.Validate() != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRandomRegularDense draws d across [1, n−1] on at most 24
// vertices, where swaps that would make a self-loop or a parallel edge
// are common and the complete graph admits none at all.
func TestRandomRegularDense(t *testing.T) {
	f := func(seed int64, rawN, rawD uint8) bool {
		n := int(rawN%23) + 2
		d := int(rawD)%(n-1) + 1
		if (n*d)%2 != 0 {
			if d > 1 {
				d--
			} else {
				d++
			}
		}
		g := RandomRegular(n, d, rand.New(rand.NewSource(seed)))
		if g.Validate() != nil || g.M() != n*d/2 {
			return false
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRandomRegularRowsIndependent edits one vertex's edges after
// generation and checks that no other adjacency list moved: the lists
// share one backing array, so a list whose capacity reached into the
// next one would be overwritten by an append.
func TestRandomRegularRowsIndependent(t *testing.T) {
	g := RandomRegular(30, 4, rand.New(rand.NewSource(3)))
	before := make([][]int, g.N())
	for v := range before {
		before[v] = g.CopyNeighbors(v)
	}
	const u = 0
	x := 2
	for g.HasEdge(u, x) {
		x++
	}
	y := before[u][0]
	g.MustAddEdge(u, x)
	if !g.RemoveEdge(u, y) {
		t.Fatalf("edge {%d,%d} missing", u, y)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := range before {
		want := before[v]
		switch v {
		case u:
			want = append(slices.DeleteFunc(slices.Clone(want), func(w int) bool { return w == y }), x)
		case x:
			want = append(slices.Clone(want), u)
		case y:
			want = slices.DeleteFunc(slices.Clone(want), func(w int) bool { return w == u })
		}
		slices.Sort(want)
		if got := g.Neighbors(v); !slices.Equal(got, want) {
			t.Errorf("N(%d) = %v after editing vertex %d, want %v", v, got, u, want)
		}
	}
}

// TestRandomRegularInt32Guard checks that sizes the int32 kernel cannot
// index are refused as infeasible. Each n·d is past what the runtime
// can allocate (or overflows int), so a missing guard shows as a
// runtime panic before any memory is taken.
func TestRandomRegularInt32Guard(t *testing.T) {
	for _, c := range []struct{ n, d int }{{1 << 31, 1 << 20}, {math.MaxInt - 1, 2}} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "infeasible") {
					t.Errorf("RandomRegular(%d,%d): panic %q, want an infeasible message", c.n, c.d, msg)
				}
			}()
			RandomRegular(c.n, c.d, rand.New(rand.NewSource(1)))
		}()
	}
}

// TestRandomRegularGolden pins RandomRegular's output and its use of
// the caller's rng: for each (n, d, seed) the graph's Fingerprint and
// edge count, and the next rng.Int63 drawn after the call (which moves
// if the generator draws one value more or less). The rows cover the
// complete graphs d = n−1 (odd and even d, where every swap is
// rejected), the antipodal matching d = 1, the ring d = 2, and the
// benchmark's solve-degplus1 instance (40000, 16, seed 1).
func TestRandomRegularGolden(t *testing.T) {
	cases := []struct {
		n, d  int
		seed  int64
		fp    uint64
		m     int
		after int64
	}{
		{4, 3, 1, 0x3bca231fac98bd01, 6, 0x6d7f55666529f937},
		{6, 5, 2, 0x7d707a02ded2b722, 15, 0x1e77c6d22921e647},
		{5, 4, 3, 0xda253aaf3e26c124, 10, 0x1b867dca9e07515f},
		{10, 1, 4, 0x92ca2633009ddcae, 5, 0x9bc4e9be9fb2aaa},
		{12, 2, 5, 0xd580ead485bc9b69, 12, 0x1d3b6913d4f872d1},
		{50, 7, 6, 0xf9febd4a88f4d356, 175, 0x5250c42b383b5165},
		{999, 10, 7, 0x2271582e678fe361, 4995, 0xc78a322563c4cfb},
		{2000, 16, 8, 0x81a38ab0f8b1e33c, 16000, 0x1f733ab7609f94a1},
		{40000, 16, 1, 0xf0d0a9bdb4ba8a99, 320000, 0xf44c8481adcc177},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(c.seed))
		g := RandomRegular(c.n, c.d, rng)
		if fp, m := g.Fingerprint(), g.M(); fp != c.fp || m != c.m {
			t.Errorf("RandomRegular(%d,%d) seed %d: fingerprint %#x, m %d; want %#x, %d",
				c.n, c.d, c.seed, fp, m, c.fp, c.m)
		}
		if after := rng.Int63(); after != c.after {
			t.Errorf("RandomRegular(%d,%d) seed %d: next rng.Int63 %#x, want %#x",
				c.n, c.d, c.seed, after, c.after)
		}
	}
}

func TestRandomRegularZero(t *testing.T) {
	g := RandomRegular(10, 0, rand.New(rand.NewSource(1)))
	if g.M() != 0 {
		t.Errorf("0-regular graph has %d edges", g.M())
	}
}

func TestGNMEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := GNM(20, 50, rng)
	if g.M() != 50 {
		t.Errorf("GNM(20,50) has %d edges", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPowerLawShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := PowerLaw(300, 3, rng)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Preferential attachment: every non-seed vertex has degree ≥ k,
	// and the max degree should be well above the minimum.
	minDeg := g.N()
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) < minDeg {
			minDeg = g.Degree(v)
		}
	}
	if minDeg < 3 {
		t.Errorf("PowerLaw min degree %d < k=3", minDeg)
	}
	if g.RawMaxDegree() < 3*3 {
		t.Errorf("PowerLaw max degree %d suspiciously small (no skew)", g.RawMaxDegree())
	}
}

func TestLineGraphStructure(t *testing.T) {
	// L(C_n) = C_n.
	lg, edgeOf := LineGraph(Ring(6))
	if lg.N() != 6 || lg.M() != 6 {
		t.Fatalf("L(C6): n=%d m=%d, want 6,6", lg.N(), lg.M())
	}
	for v := 0; v < lg.N(); v++ {
		if lg.Degree(v) != 2 {
			t.Errorf("L(C6) degree(%d) = %d", v, lg.Degree(v))
		}
	}
	if len(edgeOf) != 6 {
		t.Fatalf("edgeOf length %d", len(edgeOf))
	}
	// L(K4): each of the 6 edges meets 4 others: 3-regular on 6? No —
	// in K4 each edge shares an endpoint with 4 other edges.
	lg4, _ := LineGraph(Complete(4))
	if lg4.N() != 6 {
		t.Fatalf("L(K4): n=%d", lg4.N())
	}
	for v := 0; v < lg4.N(); v++ {
		if lg4.Degree(v) != 4 {
			t.Errorf("L(K4) degree(%d) = %d, want 4", v, lg4.Degree(v))
		}
	}
	// L(star with k leaves) = K_k.
	lgs, _ := LineGraph(CompleteBipartite(1, 5))
	if lgs.N() != 5 || lgs.M() != 10 {
		t.Fatalf("L(K_{1,5}): n=%d m=%d, want K5", lgs.N(), lgs.M())
	}
}

func TestLineGraphAdjacencyMeaning(t *testing.T) {
	g := Grid(2, 3)
	lg, edgeOf := LineGraph(g)
	for u := 0; u < lg.N(); u++ {
		for _, v := range lg.Neighbors(u) {
			e1, e2 := edgeOf[u], edgeOf[v]
			share := e1[0] == e2[0] || e1[0] == e2[1] || e1[1] == e2[0] || e1[1] == e2[1]
			if !share {
				t.Errorf("line graph edge between disjoint edges %v and %v", e1, e2)
			}
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Ring(2)", func() { Ring(2) })
	mustPanic("GNP p>1", func() { GNP(5, 1.5, rand.New(rand.NewSource(1))) })
	mustPanic("RandomRegular odd", func() { RandomRegular(5, 3, rand.New(rand.NewSource(1))) })
	mustPanic("RandomRegular d≥n", func() { RandomRegular(4, 4, rand.New(rand.NewSource(1))) })
	mustPanic("GNM too many", func() { GNM(3, 10, rand.New(rand.NewSource(1))) })
	mustPanic("PowerLaw small", func() { PowerLaw(3, 3, rand.New(rand.NewSource(1))) })
	mustPanic("Hypercube(-1)", func() { Hypercube(-1) })
	mustPanic("KaryTree(0,1)", func() { CompleteKaryTree(0, 1) })
}

func TestGeneratorDeterminism(t *testing.T) {
	a := GNP(30, 0.3, rand.New(rand.NewSource(99)))
	b := GNP(30, 0.3, rand.New(rand.NewSource(99)))
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
}

// BenchmarkRandomRegular times the swap kernel on the solve-degplus1
// instance (n = 4·10⁴, d = 16) and on a cache-resident one (n = 2000).
func BenchmarkRandomRegular(b *testing.B) {
	for _, c := range []struct{ n, d int }{{40000, 16}, {2000, 16}} {
		b.Run(fmt.Sprintf("n=%d/d=%d", c.n, c.d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RandomRegular(c.n, c.d, rand.New(rand.NewSource(1)))
			}
		})
	}
}
