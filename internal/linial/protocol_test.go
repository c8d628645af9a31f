package linial

import (
	"math/rand"
	"testing"
	"testing/quick"

	"listcolor/internal/gf"
	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// Received-value markers for roundCase.recv.
const (
	missing   = -1 // no message from this neighbor
	corrupted = -2 // a message whose payload is not an IntPayload
)

// roundCase is one reduction step at node 0, whose neighbors are
// 1..len(recv). recv[i] is the color received from neighbor i+1 (or a
// marker); out lists the conflict-relevant neighbor ids, nil meaning
// all neighbors.
type roundCase struct {
	name  string
	step  Step
	color int
	recv  []int
	out   []int
}

// referencePoint is the full-table point search: evaluate every
// conflict-relevant neighbor's polynomial at every point and take the
// first point with the fewest agreements with mine.
func referencePoint(c roundCase) int {
	q, d := c.step.Q, c.step.Degree
	mine := gf.PolyFromInt(c.color, q, d)
	conflicts := make([]int, q)
	relevant := c.out
	if relevant == nil {
		for id := 1; id <= len(c.recv); id++ {
			relevant = append(relevant, id)
		}
	}
	for _, id := range relevant {
		v := c.recv[id-1]
		if v < 0 {
			continue
		}
		theirs := gf.PolyFromInt(v, q, d)
		for a := 0; a < q; a++ {
			if theirs.Eval(a) == mine.Eval(a) {
				conflicts[a]++
			}
		}
	}
	best := 0
	for a := range conflicts {
		if conflicts[a] < conflicts[best] {
			best = a
		}
	}
	return gf.PointValue(best, mine.Eval(best), q)
}

// runRound drives one reduceNode through Init and its only Round.
func runRound(c roundCase) int {
	nbrs := make([]int, len(c.recv))
	for i := range nbrs {
		nbrs[i] = i + 1
	}
	ctx := &sim.Context{ID: 0, Neighbors: nbrs, Out: c.out}
	var result int
	n := &reduceNode{steps: []Step{c.step}, color: c.color, avoidOut: c.out != nil, result: &result}
	n.Init(ctx)
	// A stray message from a non-neighbor must be ignored.
	inbox := []sim.Message{{From: len(c.recv) + 7, Payload: sim.IntPayload{Value: 0}}}
	for i, v := range c.recv {
		switch v {
		case missing:
		case corrupted:
			inbox = append(inbox, sim.Message{From: i + 1, Payload: sim.Corrupted{Data: []byte{0xff}, Bits: 8}})
		default:
			inbox = append(inbox, sim.Message{From: i + 1, Payload: sim.IntPayload{Value: v, Domain: c.step.ColorsIn}})
		}
	}
	n.Round(ctx, 1, inbox)
	return result
}

// agreeAt returns the color whose polynomial is mine + shift·(x − a):
// it agrees with mine at point a and nowhere else.
func agreeAt(color int, step Step, a, shift int) int {
	p := gf.PolyFromInt(color, step.Q, step.Degree)
	q := step.Q
	p.Coeffs[0] = ((p.Coeffs[0]-shift*a)%q + q) % q
	p.Coeffs[1] = (p.Coeffs[1] + shift) % q
	return p.Int()
}

func TestReduceRoundMatchesReference(t *testing.T) {
	proper := ProperSchedule(5000, 4)[0]
	defective := DefectiveSchedule(5000, 8, 0.5)
	lastDef := defective[len(defective)-1]
	// forced returns k neighbors agreeing with color at points 0..k-1.
	forced := func(step Step, color, k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = agreeAt(color, step, i%step.Q, 1+i/step.Q)
		}
		return out
	}
	const c = 1234
	cases := []roundCase{
		{name: "proper/no neighbors", step: proper, color: c},
		{name: "proper/forced low points", step: proper, color: c, recv: forced(proper, c, 4)},
		{name: "proper/shares my color", step: proper, color: c, recv: append(forced(proper, c, 3), c)},
		{name: "proper/missing and corrupted", step: proper, color: c,
			recv: append(forced(proper, c, 4)[:2], missing, corrupted, agreeAt(c, proper, 2, 3))},
		{name: "proper/out-neighbors only", step: proper, color: c,
			recv: forced(proper, c, 4), out: []int{3, 4}},
		{name: "defective/every point conflicts", step: lastDef, color: 7,
			recv: forced(lastDef, 7, 2*lastDef.Q+1)},
		{name: "defective/early step", step: defective[0], color: c,
			recv: forced(defective[0], c, 3*defective[0].Q)},
		{name: "defective/missing and corrupted", step: lastDef, color: 7,
			recv: append(forced(lastDef, 7, lastDef.Q+2), missing, corrupted, missing)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got, want := runRound(tc), referencePoint(tc); got != want {
				t.Errorf("color %d, reference %d", got, want)
			}
		})
	}
}

func TestReduceRoundQuickReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2000 + rng.Intn(1_000_000)
		beta := 1 + rng.Intn(12)
		steps := ProperSchedule(m, beta)
		if rng.Intn(2) == 0 {
			steps = DefectiveSchedule(m, beta, []float64{1, 0.5, 0.25, 0.125}[rng.Intn(4)])
		}
		if len(steps) == 0 {
			return true
		}
		step := steps[rng.Intn(len(steps))]
		tc := roundCase{step: step, color: rng.Intn(step.ColorsIn)}
		for i := rng.Intn(3*beta + 2); i > 0; i-- {
			var v int
			switch r := rng.Intn(20); {
			case r < 2:
				v = missing
			case r < 4:
				v = corrupted
			case r < 5:
				v = tc.color
			case r < 13:
				v = agreeAt(tc.color, step, rng.Intn(min(step.Q, 4)), 1+rng.Intn(step.Q-1))
			default:
				v = rng.Intn(step.ColorsIn)
			}
			tc.recv = append(tc.recv, v)
		}
		if rng.Intn(2) == 0 {
			tc.out = []int{}
			for id := 1; id <= len(tc.recv); id++ {
				if rng.Intn(2) == 0 {
					tc.out = append(tc.out, id)
				}
			}
		}
		return runRound(tc) == referencePoint(tc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestReduceRoundRangeChecksEveryNeighbor pins that every received
// color is decoded and range-checked: point 0 is conflict-free for the
// in-range neighbor, so the scan ends there, yet the out-of-range color
// after it must still panic.
func TestReduceRoundRangeChecksEveryNeighbor(t *testing.T) {
	step := ProperSchedule(5000, 4)[0]
	rep := 1
	for i := 0; i <= step.Degree; i++ {
		rep *= step.Q
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range neighbor color did not panic")
		}
	}()
	runRound(roundCase{step: step, color: 1, recv: []int{2, rep}})
}

func BenchmarkColorFromIDs(b *testing.B) {
	g := graph.RandomRegular(10_000, 16, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ColorFromIDs(g, sim.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
