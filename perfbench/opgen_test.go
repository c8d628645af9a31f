package main

import (
	"bytes"
	"math/rand"
	"testing"

	"listcolor/internal/graph"
	"listcolor/internal/service"
)

func TestScriptIsReproducible(t *testing.T) {
	base := graph.StreamedPowerLaw(2000, 3, 5)
	space := listInstance(base, 5).Space
	a, b := newOpGen(base, space, 2, 1, 5), newOpGen(base, space, 2, 1, 5)
	other := newOpGen(base, space, 2, 1, 6)
	differs := false
	for i := 0; i < 20; i++ {
		x, y, z := a.body(200, 0.05), b.body(200, 0.05), other.body(200, 0.05)
		if !bytes.Equal(x, y) {
			t.Fatalf("batch %d differs between two generators with the same seed", i)
		}
		differs = differs || !bytes.Equal(x, z)
	}
	if !differs {
		t.Fatal("another seed gave the same script")
	}
}

// TestScriptsApplyCleanly applies the clients' scripts, interleaved in
// a random order, to a small service: no op may be rejected and the
// final coloring must audit clean.
func TestScriptsApplyCleanly(t *testing.T) {
	cases := []struct {
		name      string
		base      *graph.CSR
		clients   int
		batch     int
		listShare float64
	}{
		{"ring", graph.StreamedRing(500), 1, 1, 0},
		{"powerlaw", graph.StreamedPowerLaw(3000, 3, 9), ingestClients, 100, ingestListShare},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := listInstance(tc.base, 9)
			svc, err := service.New(tc.base, inst, nil, service.Options{})
			if err != nil {
				t.Fatal(err)
			}
			gens := make([]*opGen, tc.clients)
			for c := range gens {
				gens[c] = newOpGen(tc.base, inst.Space, tc.clients, c, 9)
			}
			m := &model{deg: make([]int, tc.base.N()), inst: listInstance(tc.base, 9)}
			for v := range m.deg {
				m.deg[v] = tc.base.Degree(v)
			}
			order := rand.New(rand.NewSource(1))
			for i := 0; i < 300; i++ {
				ops, err := decodeBody(gens[order.Intn(tc.clients)].body(tc.batch, tc.listShare))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := svc.ApplyBatch(ops); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				m.apply(ops)
			}
			snap := svc.Snapshot()
			if err := m.check(snap); err != nil {
				t.Fatal(err)
			}
			for v, d := range m.deg {
				if capacity := tc.base.Degree(v) + paletteHeadroom; d > capacity-2 {
					t.Fatalf("node %d reached degree %d, guard allows %d", v, d, capacity-2)
				}
			}
			if err := svc.ValidateState(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
