package main

import (
	"encoding/json"
	"math/rand"
	"sort"

	"listcolor/internal/graph"
	"listcolor/internal/service"
)

// opGen is the seeded shadow-model op generator. It keeps its own copy
// of the topology changes it has emitted and never reads the service,
// so every op it emits is valid in script order and any rejection is a
// failure of the system under test.
//
// Several clients may write concurrently: each client owns the edges
// whose hash falls in its residue class and the set_list ops of the
// nodes in its residue class, and may raise a node's degree only by its
// share of the list headroom. Any interleaving of the clients' scripts
// is therefore valid, and every node's degree stays at least 2 below
// its list's capacity Σ(d+1), the guard cmd/colord's churn mode
// applies.
type opGen struct {
	base    *graph.CSR
	space   int
	clients int
	client  int
	rng     *rand.Rand

	delta     []int32 // this client's net degree change per node
	removed   map[uint64]bool
	added     map[uint64]int // edge key -> index in addedList
	addedList []uint64
}

func newOpGen(base *graph.CSR, space, clients, client int, seed int64) *opGen {
	return &opGen{
		base:    base,
		space:   space,
		clients: clients,
		client:  client,
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		delta:   make([]int32, base.N()),
		removed: make(map[uint64]bool),
		added:   make(map[uint64]int),
	}
}

func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func keyEdge(k uint64) (int, int) { return int(k >> 32), int(k & 0xffffffff) }

// owner assigns every edge to one client by a splitmix64 hash of its key.
func (g *opGen) owner(u, v int) int {
	x := edgeKey(u, v) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(g.clients))
}

// quota is how far this client may raise a node's degree above its base
// degree: its share of the list headroom less the guard's 2.
func (g *opGen) quota() int32 { return int32((paletteHeadroom - 2) / g.clients) }

func (g *opGen) present(u, v int) bool {
	k := edgeKey(u, v)
	if g.base.HasEdge(u, v) {
		return !g.removed[k]
	}
	_, ok := g.added[k]
	return ok
}

// hub draws a node with probability proportional to its base degree,
// so power-law hubs take most writes (uniform on a ring).
func (g *opGen) hub() int {
	arc := g.rng.Int63n(g.base.Arcs())
	n := g.base.N()
	return sort.Search(n, func(v int) bool { return g.base.RowStart(v+1) > arc })
}

func (g *opGen) add(u, v int) service.Op {
	k := edgeKey(u, v)
	if g.base.HasEdge(u, v) {
		delete(g.removed, k)
	} else {
		g.added[k] = len(g.addedList)
		g.addedList = append(g.addedList, k)
	}
	g.delta[u]++
	g.delta[v]++
	return service.Op{Action: service.OpAddEdge, U: u, V: v}
}

func (g *opGen) remove(u, v int) service.Op {
	k := edgeKey(u, v)
	if i, ok := g.added[k]; ok {
		last := g.addedList[len(g.addedList)-1]
		g.addedList[i] = last
		g.added[last] = i
		g.addedList = g.addedList[:len(g.addedList)-1]
		delete(g.added, k)
	} else {
		g.removed[k] = true
	}
	g.delta[u]--
	g.delta[v]--
	return service.Op{Action: service.OpRemoveEdge, U: u, V: v}
}

// edgeOp emits one insert or delete: inserts join a hub to a uniform
// node; deletes take back an earlier insert or cut a hub's base edge.
func (g *opGen) edgeOp() service.Op {
	n := g.base.N()
	for {
		if g.rng.Intn(2) == 0 {
			u, v := g.hub(), g.rng.Intn(n)
			if u != v && g.owner(u, v) == g.client && !g.present(u, v) &&
				g.delta[u] < g.quota() && g.delta[v] < g.quota() {
				return g.add(u, v)
			}
			continue
		}
		if len(g.addedList) > 0 && g.rng.Intn(2) == 0 {
			u, v := keyEdge(g.addedList[g.rng.Intn(len(g.addedList))])
			return g.remove(u, v)
		}
		u := g.hub()
		row := g.base.Row(u)
		if len(row) == 0 {
			continue
		}
		v := row[g.rng.Intn(len(row))]
		if g.owner(u, v) == g.client && g.present(u, v) {
			return g.remove(u, v)
		}
	}
}

// listOp replaces a hub's list with 4..16 palette colors whose defect
// budgets keep the list's capacity Σ(d+1) at its initial deg+4, so the
// degree guard still holds.
func (g *opGen) listOp() service.Op {
	v := g.hub()
	for v%g.clients != g.client {
		v = g.hub()
	}
	capacity := g.base.Degree(v) + paletteHeadroom
	k := min(4+g.rng.Intn(13), capacity)
	list := sampleSorted(g.rng, g.space, k)
	defects := make([]int, k)
	for i := range defects {
		defects[i] = (capacity - k) / k
		if i < (capacity-k)%k {
			defects[i]++
		}
	}
	return service.Op{Action: service.OpSetList, Node: v, List: list, Defects: defects}
}

// batch emits size ops, a listShare fraction of them set_list.
func (g *opGen) batch(size int, listShare float64) []service.Op {
	ops := make([]service.Op, size)
	for i := range ops {
		if listShare > 0 && g.rng.Float64() < listShare {
			ops[i] = g.listOp()
		} else {
			ops[i] = g.edgeOp()
		}
	}
	return ops
}

// body returns the next batch of size ops, a listShare fraction of them
// set_list, JSON-encoded exactly as POST /v1/updates expects.
func (g *opGen) body(size int, listShare float64) []byte {
	b, err := json.Marshal(service.UpdateRequest{Ops: g.batch(size, listShare)})
	if err != nil {
		panic(err) // ops hold only ints and strings
	}
	return b
}
