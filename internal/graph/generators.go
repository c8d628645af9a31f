package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Ring returns the n-cycle (n ≥ 3). Rings are the classical hard
// instance for the Ω(log* n) lower bound and appear throughout the
// experiments.
func Ring(n int) *Graph {
	if n < 3 {
		panic("graph: Ring needs n ≥ 3")
	}
	g := New(n)
	for v := 0; v < n; v++ {
		g.MustAddEdge(v, (v+1)%n)
	}
	g.Normalize()
	return g
}

// Path returns the path on n vertices (n ≥ 1).
func Path(n int) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1)
	}
	g.Normalize()
	return g
}

// Complete returns K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v)
		}
	}
	g.Normalize()
	return g
}

// CompleteBipartite returns K_{a,b}: vertices 0..a-1 on one side,
// a..a+b-1 on the other.
func CompleteBipartite(a, b int) *Graph {
	g := New(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			g.MustAddEdge(u, v)
		}
	}
	g.Normalize()
	return g
}

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	g.Normalize()
	return g
}

// Hypercube returns the d-dimensional hypercube on 2^d vertices.
func Hypercube(d int) *Graph {
	if d < 0 || d > 24 {
		panic("graph: Hypercube dimension out of range")
	}
	n := 1 << uint(d)
	g := New(n)
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			u := v ^ (1 << uint(b))
			if v < u {
				g.MustAddEdge(v, u)
			}
		}
	}
	g.Normalize()
	return g
}

// CompleteKaryTree returns a complete k-ary tree with the given number
// of levels (levels ≥ 1; one level is a single root).
func CompleteKaryTree(k, levels int) *Graph {
	if k < 1 || levels < 1 {
		panic("graph: CompleteKaryTree needs k ≥ 1 and levels ≥ 1")
	}
	n := 0
	width := 1
	for l := 0; l < levels; l++ {
		n += width
		width *= k
	}
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v, (v-1)/k)
	}
	g.Normalize()
	return g
}

// GNP returns an Erdős–Rényi random graph G(n, p) drawn from rng.
func GNP(n int, p float64, rng *rand.Rand) *Graph {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("graph: GNP probability %v out of [0,1]", p))
	}
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	g.Normalize()
	return g
}

// GNM returns a uniformly random simple graph with n vertices and m
// edges. It panics if m exceeds the number of possible edges.
func GNM(n, m int, rng *rand.Rand) *Graph {
	maxEdges := n * (n - 1) / 2
	if m < 0 || m > maxEdges {
		panic(fmt.Sprintf("graph: GNM needs 0 ≤ m ≤ %d, got %d", maxEdges, m))
	}
	g := New(n)
	for g.M() < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v)
		}
	}
	g.Normalize()
	return g
}

// RandomRegular returns a random d-regular graph on n vertices. n·d
// must be even, 0 ≤ d < n and n < 2³¹. The graph starts as the
// canonical circulant and is randomized by 20·m degree-preserving
// double-edge swap attempts, which always succeeds (unlike rejection
// sampling on the configuration model, which stalls for dense small
// graphs).
//
// The swaps run on a dedicated kernel (regularKernel): fixed-stride
// int32 neighbor rows and an int32 edge-slot list, 4·n·d + 8·m bytes
// of scratch. Each attempt draws (i1, i2, coin) from rng, reads two
// edge slots and scans two contiguous d-entry rows for the simplicity
// check; an accepted swap scans two more and rewrites four row entries
// and both slots in place. An attempt is thus O(d) and the pass
// O(m·d). Attempts are drawn swapBatch ahead so the memory they touch
// is requested together, but they run strictly in order against the
// live state. The sorted *Graph is built once at the end.
func RandomRegular(n, d int, rng *rand.Rand) *Graph {
	if d < 0 || d >= n || n > math.MaxInt32 || d > math.MaxInt/n || (n*d)%2 != 0 {
		panic(fmt.Sprintf("graph: RandomRegular(%d,%d) infeasible", n, d))
	}
	if d == 0 {
		return New(n)
	}
	k := newRegularKernel(n, d)
	k.shuffle(rng, 20*len(k.edges))
	return k.graph()
}

// swapBatch is how many swap attempts RandomRegular draws ahead.
const swapBatch = 32

// regularKernel holds a simple d-regular graph for RandomRegular's
// swap loop. Vertex v's neighbors sit, unordered, at
// nbr[v·d : v·d+d]; edges lists every edge once as {u, v} with u < v.
type regularKernel struct {
	n, d  int
	nbr   []int32
	edges [][2]int32
	sink  int32 // keeps the draw-ahead loads from being optimized away
}

// newRegularKernel returns the canonical circulant: v is adjacent to
// v±k for k = 1..⌊d/2⌋, plus the antipodal vertex v + n/2 when d is
// odd (n is even in that case since n·d is even). Its edge slots are
// in lexicographic order.
func newRegularKernel(n, d int) *regularKernel {
	k := &regularKernel{n: n, d: d, nbr: make([]int32, n*d), edges: make([][2]int32, 0, n*d/2)}
	for v := 0; v < n; v++ {
		row := k.nbr[v*d : v*d+d]
		for s := 1; s <= d/2; s++ {
			row[2*s-2], row[2*s-1] = int32((v+s)%n), int32((v-s+n)%n)
		}
		if d%2 == 1 {
			row[d-1] = int32((v + n/2) % n)
		}
		slices.Sort(row)
		for _, w := range row {
			if int(w) > v {
				k.edges = append(k.edges, [2]int32{int32(v), w})
			}
		}
	}
	return k
}

// shuffle makes the given number of swap attempts. Each attempt draws
// i1, i2 = rng.Intn(m) and then coin = rng.Intn(2), in attempt order,
// whatever the attempts decide.
func (k *regularKernel) shuffle(rng *rand.Rand, attempts int) {
	m := len(k.edges)
	var draws [swapBatch][3]int
	for done := 0; done < attempts; {
		b := min(swapBatch, attempts-done)
		for j := 0; j < b; j++ {
			draws[j] = [3]int{rng.Intn(m), rng.Intn(m), rng.Intn(2)}
		}
		// Touch each drawn slot and the rows of its endpoints as they
		// stand now, so their cache misses overlap instead of stalling
		// one attempt at a time.
		sink := k.sink
		for _, dr := range draws[:b] {
			e1, e2 := k.edges[dr[0]], k.edges[dr[1]]
			sink += k.nbr[int(e1[0])*k.d] + k.nbr[int(e1[1])*k.d] +
				k.nbr[int(e2[0])*k.d] + k.nbr[int(e2[1])*k.d]
		}
		k.sink = sink
		for _, dr := range draws[:b] {
			k.swap(dr[0], dr[1], dr[2] == 0)
		}
		done += b
	}
}

// swap attempts {a,b},{c,dd} → {a,c},{b,dd} on edge slots i1 and i2,
// reading slot i2 as {dd,c} when flip is set, and applies it when the
// graph stays simple.
func (k *regularKernel) swap(i1, i2 int, flip bool) {
	a, b := k.edges[i1][0], k.edges[i1][1]
	c, dd := k.edges[i2][0], k.edges[i2][1]
	if flip {
		c, dd = dd, c
	}
	if a == c || a == dd || b == c || b == dd {
		return
	}
	// ib and ia locate b in a's row and a in b's row; -1 means c is
	// already a's neighbor or dd is b's, and the swap would make a
	// parallel edge.
	ib := k.find(a, b, c)
	if ib < 0 {
		return
	}
	ia := k.find(b, a, dd)
	if ia < 0 {
		return
	}
	ic, id := k.index(c, dd), k.index(dd, c)
	k.nbr[ib], k.nbr[ia], k.nbr[ic], k.nbr[id] = c, dd, a, b
	k.edges[i1] = [2]int32{min(a, c), max(a, c)}
	k.edges[i2] = [2]int32{min(b, dd), max(b, dd)}
}

// find returns the index in nbr of u's neighbor old, or -1 if w is
// also a neighbor of u. Unless it finds w, it reads the whole row, so
// the position of old costs no mispredicted branch.
func (k *regularKernel) find(u, old, w int32) int {
	base := int(u) * k.d
	at := 0
	for i, x := range k.nbr[base : base+k.d] {
		if x == w {
			return -1
		}
		if x == old {
			at = i
		}
	}
	return base + at
}

// index returns the index in nbr of u's neighbor old, reading the
// whole row as find does.
func (k *regularKernel) index(u, old int32) int {
	base := int(u) * k.d
	at := 0
	for i, x := range k.nbr[base : base+k.d] {
		if x == old {
			at = i
		}
	}
	return base + at
}

// graph returns the kernel's graph with sorted adjacency lists. The
// lists share one backing array; each is capacity-clipped, so an
// AddEdge on one vertex reallocates that list rather than writing into
// the next.
func (k *regularKernel) graph() *Graph {
	n, d := k.n, k.d
	back := make([]int, n*d)
	g := &Graph{n: n, adj: make([][]int, n), edges: len(k.edges), sorted: true}
	for v := 0; v < n; v++ {
		row := back[v*d : v*d+d : v*d+d]
		for i, w := range k.nbr[v*d : v*d+d] {
			row[i] = int(w)
		}
		slices.Sort(row)
		g.adj[v] = row
	}
	return g
}

// PowerLaw returns a preferential-attachment graph (Barabási–Albert
// style): vertices arrive one at a time and attach to k existing
// vertices chosen proportionally to degree (+1 smoothing). Produces
// the skewed degree distributions used to stress per-node slack
// conditions.
func PowerLaw(n, k int, rng *rand.Rand) *Graph {
	if k < 1 || n < k+1 {
		panic(fmt.Sprintf("graph: PowerLaw(%d,%d) infeasible", n, k))
	}
	g := New(n)
	// Seed clique on k+1 vertices.
	targets := make([]int, 0, 2*n*k) // degree-weighted sampling pool
	for u := 0; u <= k; u++ {
		for v := u + 1; v <= k; v++ {
			g.MustAddEdge(u, v)
			targets = append(targets, u, v)
		}
	}
	for v := k + 1; v < n; v++ {
		chosen := make(map[int]bool, k)
		var order []int // insertion order, so edge insertion (and hence
		// future degree-weighted sampling) is deterministic — iterating
		// the map directly would randomize it per run.
		for len(chosen) < k {
			var t int
			if len(targets) == 0 || rng.Float64() < 0.05 {
				t = rng.Intn(v) // smoothing: occasionally uniform
			} else {
				t = targets[rng.Intn(len(targets))]
			}
			if t != v && !chosen[t] {
				chosen[t] = true
				order = append(order, t)
			}
		}
		for _, t := range order {
			g.MustAddEdge(v, t)
			targets = append(targets, v, t)
		}
	}
	g.Normalize()
	return g
}

// LineGraph returns the line graph L(g): one vertex per edge of g, two
// line-graph vertices adjacent iff the underlying edges share an
// endpoint. Also returns edgeOf, mapping line-graph vertex i to its
// underlying edge (u, v) with u < v. The line graph of any graph has
// neighborhood independence θ ≤ 2, which makes these the canonical
// workload for the Section 4 algorithms: a proper vertex coloring of
// L(g) is an edge coloring of g.
func LineGraph(g *Graph) (lg *Graph, edgeOf [][2]int) {
	g.Normalize()
	edgeOf = g.Edges()
	index := make(map[[2]int]int, len(edgeOf))
	for i, e := range edgeOf {
		index[e] = i
	}
	lg = New(len(edgeOf))
	edgeKey := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	for v := 0; v < g.n; v++ {
		nb := g.adj[v]
		for i := 0; i < len(nb); i++ {
			for j := i + 1; j < len(nb); j++ {
				e1 := index[edgeKey(v, nb[i])]
				e2 := index[edgeKey(v, nb[j])]
				lg.MustAddEdge(e1, e2)
			}
		}
	}
	lg.Normalize()
	return lg, edgeOf
}

// Disjoint union: Union returns the disjoint union of the given
// graphs, with the vertices of graphs[i] offset by the total size of
// the earlier graphs.
func Union(graphs ...*Graph) *Graph {
	total := 0
	for _, g := range graphs {
		total += g.n
	}
	out := New(total)
	offset := 0
	for _, g := range graphs {
		for _, e := range g.Edges() {
			out.MustAddEdge(e[0]+offset, e[1]+offset)
		}
		offset += g.n
	}
	out.Normalize()
	return out
}
