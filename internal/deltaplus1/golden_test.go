package deltaplus1

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// colorsDigest is the FNV-1a hash of the colors, each as 8
// little-endian bytes.
func colorsDigest(colors []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range colors {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSolveGoldenDigest pins Solve's full output on a fixed-seed
// instance: the colors, the round/message/bit counts, the scales and
// the OLDC calls. Changes to local computation must leave every one
// of them unchanged.
func TestSolveGoldenDigest(t *testing.T) {
	g := graph.RandomRegular(2000, 16, rand.New(rand.NewSource(1)))
	inst := coloring.DegreePlusOne(g, 64, rand.New(rand.NewSource(2)))
	res, err := Solve(g, inst, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := colorsDigest(res.Colors), uint64(0xc322544f42bc601a); got != want {
		t.Errorf("colors digest = %#x, want %#x", got, want)
	}
	wantStats := sim.Result{Rounds: 1997, Messages: 64000, TotalBits: 544000, MaxMessageBits: 11}
	if res.Stats != wantStats {
		t.Errorf("stats = %+v, want %+v", res.Stats, wantStats)
	}
	if res.Scales != 4 || res.OLDCCalls != 332 {
		t.Errorf("scales, OLDC calls = %d, %d; want 4, 332", res.Scales, res.OLDCCalls)
	}
}
