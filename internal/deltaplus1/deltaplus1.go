// Package deltaplus1 computes proper (deg+1)-list colorings in the
// CONGEST model (the problem of Theorem 1.3): every node v has a list
// L_v of at least deg(v)+1 colors from a space of size C = O(Δ) and
// must pick a color differing from all neighbors.
//
// Pipeline (all pieces from the paper):
//
//  1. Linial bootstrap (O(log* n) rounds): proper q = O(Δ²) coloring.
//  2. Degree-halving scales (Lemma A.1's structure): in each scale,
//     compute a defective coloring of the uncolored subgraph H with
//     α = 1/(2μ), μ = ⌈3√C⌉ (Lemma 3.4), giving K = O(μ²) classes
//     where each node has at most deg_H(v)/(2μ) same-class neighbors.
//  3. Process classes sequentially. A node is active at its class's
//     turn if at most half of its H-neighbors have been colored this
//     scale. Its pruned list (minus colors taken by colored
//     neighbors) then has ≥ deg_H(v)/2 + 1 colors while its active
//     same-class degree is ≤ deg_H(v)/(2μ) — slack ≥ μ ≥ 3√C, exactly
//     what the Theorem 1.2 solver (package csr) needs to color the
//     class subgraph properly in O(log³C + log* q) rounds.
//  4. Nodes never activated during a scale have more than half their
//     H-neighbors colored, so the uncolored subgraph's degrees halve
//     every scale: ≤ ⌈log Δ⌉ + 2 scales in total.
//
// Complexity note: this is the paper's own Lemma A.1 reduction and
// costs O(C·log Δ) calls of the Theorem 1.2 solver — Õ(Δ·log Δ)
// rounds overall. Theorem 1.3's stronger Õ(√Δ) + O(log* n) bound
// plugs Theorem 1.2 into the framework of [FK23a, Theorem 4], whose
// internals the paper cites but does not describe; EXPERIMENTS.md
// records the measured shape of this implementation against both
// bounds.
package deltaplus1

import (
	"errors"
	"fmt"
	"math"

	"listcolor/internal/coloring"
	"listcolor/internal/csr"
	"listcolor/internal/defective"
	"listcolor/internal/graph"
	"listcolor/internal/linial"
	"listcolor/internal/logstar"
	"listcolor/internal/palette"
	"listcolor/internal/sim"
)

// ErrNotDegPlusOne is returned when the instance is not a valid
// (deg+1)-list coloring instance (non-zero defects or short lists).
var ErrNotDegPlusOne = errors.New("deltaplus1: not a (deg+1)-list instance")

// Result is the outcome of a (deg+1)-list coloring run.
type Result struct {
	Colors []int
	Stats  sim.Result
	// Scales is the number of degree-halving scales used.
	Scales int
	// OLDCCalls counts invocations of the Theorem 1.2 solver.
	OLDCCalls int
}

// Check verifies the (deg+1)-list preconditions: zero defects and
// |L_v| ≥ deg(v)+1.
func Check(g *graph.Graph, inst *coloring.Instance) error {
	if inst.N() != g.N() {
		return fmt.Errorf("%w: %d lists for %d nodes", ErrNotDegPlusOne, inst.N(), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if inst.ListSize(v) < g.Degree(v)+1 {
			return fmt.Errorf("%w: node %d has %d colors for degree %d", ErrNotDegPlusOne, v, inst.ListSize(v), g.Degree(v))
		}
		for _, d := range inst.Defects[v] {
			if d != 0 {
				return fmt.Errorf("%w: node %d has non-zero defect", ErrNotDegPlusOne, v)
			}
		}
	}
	return nil
}

// Solve colors the (deg+1)-list instance properly.
func Solve(g *graph.Graph, inst *coloring.Instance, cfg sim.Config) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, err
	}
	if err := Check(g, inst); err != nil {
		return Result{}, err
	}
	n := g.N()
	// Step 1: Linial bootstrap.
	rootSpan := cfg.Span
	cfg.Span = nil // sub-steps attach their own labeled spans below
	bootSpan := rootSpan.Child("Linial bootstrap (log* n)")
	base, err := linial.ColorFromIDs(g, cfg)
	if err != nil {
		return Result{}, fmt.Errorf("deltaplus1: bootstrap: %w", err)
	}
	bootSpan.Done(base.Stats)
	res := Result{Colors: make([]int, n), Stats: base.Stats}
	for v := range res.Colors {
		res.Colors[v] = -1
	}

	mu := int(math.Ceil(3 * math.Sqrt(float64(inst.Space))))
	alpha := 1 / float64(2*mu)
	maxScales := logstar.CeilLog2(g.MaxDegree()) + 3

	uncolored := make([]int, n)
	posH := make([]int32, n) // v's index in the current scale's H, -1 outside
	for v := range uncolored {
		uncolored[v] = v
		posH[v] = -1
	}
	for len(uncolored) > 0 {
		res.Scales++
		if res.Scales > maxScales {
			return Result{}, fmt.Errorf("deltaplus1: degree halving failed to converge after %d scales", maxScales)
		}
		scaleSpan := rootSpan.Child(fmt.Sprintf("scale %d: %d uncolored", res.Scales, len(uncolored)))
		remaining, scaleStats, calls, err := runScale(g, inst, base, res.Colors, uncolored, posH, mu, alpha, cfg, scaleSpan)
		if err != nil {
			return Result{}, err
		}
		scaleSpan.Done(scaleStats)
		res.Stats = sim.Seq(res.Stats, scaleStats)
		res.OLDCCalls += calls
		uncolored = remaining
	}
	return res, nil
}

// runScale executes one degree-halving scale over the uncolored nodes
// and returns the still-uncolored set. posH must be -1 everywhere on
// entry; runScale fills it for H's nodes and resets it before a
// successful return, so a scale costs O(|H| + K) and not O(n).
func runScale(g *graph.Graph, inst *coloring.Instance, base linial.Result, colors []int, uncolored []int, posH []int32, mu int, alpha float64, cfg sim.Config, span *sim.Span) ([]int, sim.Result, int, error) {
	h, origH := g.InducedSubgraph(uncolored)
	baseH := make([]int, len(origH))
	for i, v := range origH {
		baseH[i] = base.Colors[v]
		posH[v] = int32(i)
	}
	// Defective coloring of H: K = O(μ²) classes, ≤ deg_H/(2μ)
	// same-class neighbors per node.
	psi, err := defective.ColorUndirected(h, baseH, base.Palette, alpha, cfg)
	if err != nil {
		return nil, sim.Result{}, 0, fmt.Errorf("deltaplus1: defective split: %w", err)
	}
	span.Child(fmt.Sprintf("defective split α=%.3g → %d classes", alpha, psi.Palette)).Done(psi.Stats)
	stats := psi.Stats
	calls := 0

	// Bucket H by class with one counting sort: byClass[start[c]:start[c+1]]
	// lists class c's H-indices in ascending order.
	start := make([]int, psi.Palette+1)
	for _, c := range psi.Colors {
		start[c+1]++
	}
	for c := 0; c < psi.Palette; c++ {
		start[c+1] += start[c]
	}
	byClass := make([]int, len(origH))
	next := append([]int(nil), start[:psi.Palette]...)
	for i, c := range psi.Colors {
		byClass[next[c]] = i
		next[c]++
	}

	coloredInScale := make([]int, len(origH)) // H-neighbors colored this scale
	done := make([]bool, len(origH))
	for class := 0; class < psi.Palette; class++ {
		// Active: class members with ≤ half their H-neighbors colored
		// this scale. Only this class's turn marks its members done.
		var active []int // original ids
		for _, i := range byClass[start[class]:start[class+1]] {
			if 2*coloredInScale[i] <= h.Degree(i) {
				active = append(active, origH[i])
			}
		}
		if len(active) == 0 {
			continue
		}
		classStats, err := colorActive(g, inst, base, colors, active, cfg)
		if err != nil {
			return nil, sim.Result{}, 0, err
		}
		span.Child(fmt.Sprintf("class %d: %d active (Thm 1.2 solver)", class, len(active))).Done(classStats)
		calls++
		// One extra round for announcing the new colors to neighbors
		// outside the class subgraph: one O(log C)-bit message per
		// incident edge end.
		announce := sim.Result{Rounds: 1, MaxMessageBits: sim.BitsFor(inst.Space)}
		for _, v := range active {
			announce.Messages += g.Degree(v)
		}
		announce.TotalBits = announce.Messages * announce.MaxMessageBits
		stats = sim.Seq(stats, sim.Seq(classStats, announce))
		for _, v := range active {
			done[posH[v]] = true
			for _, u := range g.Neighbors(v) {
				if j := posH[u]; j >= 0 {
					coloredInScale[j]++
				}
			}
		}
	}
	var remaining []int
	for i, v := range origH {
		posH[v] = -1
		if !done[i] {
			remaining = append(remaining, v)
		}
	}
	return remaining, stats, calls, nil
}

// colorActive properly colors the induced subgraph over active using
// pruned lists and the Theorem 1.2 solver, writing into colors.
func colorActive(g *graph.Graph, inst *coloring.Instance, base linial.Result, colors []int, active []int, cfg sim.Config) (sim.Result, error) {
	sub, orig := g.InducedSubgraph(active)
	d := graph.OrientByID(sub)
	subInst := &coloring.Instance{
		Lists:   make([][]int, len(orig)),
		Defects: make([][]int, len(orig)),
		Space:   inst.Space,
	}
	used := palette.NewSet(inst.Space)
	for i, v := range orig {
		used.Clear()
		for _, u := range g.Neighbors(v) {
			if colors[u] >= 0 {
				used.Insert(colors[u])
			}
		}
		for _, x := range inst.Lists[v] {
			if !used.Contains(x) {
				subInst.Lists[i] = append(subInst.Lists[i], x)
				subInst.Defects[i] = append(subInst.Defects[i], 0)
			}
		}
	}
	initSub := make([]int, len(orig))
	for i, v := range orig {
		initSub[i] = base.Colors[v]
	}
	// Re-bootstrap: the class subgraph has degree ≤ deg_H/(2μ), so
	// O(log* q) rounds of Linial shrink its proper coloring from the
	// global q = O(Δ²) to O(Δ_sub²) classes — the two-sweep phases
	// inside the solver then sweep over far fewer classes.
	reb, err := linial.ReduceProperUndirected(sub, initSub, base.Palette, cfg)
	if err != nil {
		return sim.Result{}, fmt.Errorf("deltaplus1: class re-bootstrap: %w", err)
	}
	r, err := csr.Solve(d, subInst, reb.Colors, reb.Palette, cfg)
	if err != nil {
		return sim.Result{}, fmt.Errorf("deltaplus1: class coloring: %w", err)
	}
	if err := coloring.ValidateProperList(sub, subInst, r.Colors); err != nil {
		return sim.Result{}, fmt.Errorf("deltaplus1: class coloring invalid: %w", err)
	}
	for i, v := range orig {
		colors[v] = r.Colors[i]
	}
	return sim.Seq(reb.Stats, r.Stats), nil
}
