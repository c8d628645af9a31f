package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"listcolor/internal/coloring"
	"listcolor/internal/deltaplus1"
	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// solve-degplus1: Theorem 1.3's (deg+1)-list coloring on a random
// 16-regular graph of 4·10⁴ nodes with lists of deg+1 colors drawn from
// a space of 4Δ, solved with the default sim.Config and checked with
// ValidateProperList. A run solves repeatedly for its seconds.
const (
	solveNodes  = 40_000
	solveDegree = 16
	solveSpace  = 4 * solveDegree
)

// roundMark is the time an OnRound call arrived.
type roundMark struct {
	at    int64
	stats sim.RoundStats
}

type solveRun struct {
	wall   float64
	res    deltaplus1.Result
	marks  []roundMark
	root   *sim.Span
	start  int64
	finish int64
}

func solveOnce(tr *tracer, g *graph.Graph, inst *coloring.Instance, traced bool) (solveRun, error) {
	var cfg sim.Config
	var sr solveRun
	if traced {
		sr.root = sim.NewSpan("deltaplus1")
		cfg.Span = sr.root
		sr.marks = make([]roundMark, 0, 4096)
		cfg.OnRound = func(rs sim.RoundStats) { sr.marks = append(sr.marks, roundMark{tr.now(), rs}) }
	}
	sr.start = tr.now()
	t := time.Now()
	res, err := deltaplus1.Solve(g, inst, cfg)
	sr.wall = since(t)
	sr.finish = tr.now()
	sr.res = res
	return sr, err
}

// check is the correctness gate of one solve: a proper list coloring,
// and the same colors, rounds and message bits as the first solve.
func (sr *solveRun) check(g *graph.Graph, inst *coloring.Instance, first *solveRun) error {
	if err := coloring.ValidateProperList(g, inst, sr.res.Colors); err != nil {
		return err
	}
	if first == nil {
		return nil
	}
	if sr.res.Stats != first.res.Stats {
		return fmt.Errorf("solve costs %+v, the first solve's %+v", sr.res.Stats, first.res.Stats)
	}
	for v, c := range sr.res.Colors {
		if c != first.res.Colors[v] {
			return fmt.Errorf("node %d colored %d, by the first solve %d", v, c, first.res.Colors[v])
		}
	}
	return nil
}

func runSolve(o options) (*outcome, error) {
	tr := newTracer()
	var g *graph.Graph
	var inst *coloring.Instance
	var total, graphS, instS []float64
	for i := 0; i < setupReps; i++ {
		g, inst = nil, nil
		freeMemory()
		cpu0 := cpuSeconds()
		t := time.Now()
		g = graph.RandomRegular(solveNodes, solveDegree, rand.New(rand.NewSource(o.seed)))
		graphS = append(graphS, since(t))
		t = time.Now()
		inst = coloring.DegreePlusOne(g, solveSpace, rand.New(rand.NewSource(o.seed+1)))
		instS = append(instS, since(t))
		total = append(total, cpuSeconds()-cpu0)
	}

	out := newOutcome()
	untracedDur := o.seconds
	if o.trace {
		untracedDur = o.seconds / 2
	}
	freeMemory()
	// One untimed solve warms the heap and becomes the reference the
	// timed solves must reproduce.
	warm, err := solveOnce(tr, g, inst, false)
	if err != nil {
		return nil, err
	}
	if err := warm.check(g, inst, nil); err != nil {
		return nil, err
	}
	first := &warm
	var walls []float64
	loop := func(dur float64, traced bool) ([]solveRun, error) {
		var runs []solveRun
		end := time.Now().Add(time.Duration(dur * 1e9))
		for len(runs) < 3 || time.Now().Before(end) {
			sr, err := solveOnce(tr, g, inst, traced)
			if err != nil {
				return nil, err
			}
			if err := sr.check(g, inst, first); err != nil {
				return nil, err
			}
			runs = append(runs, sr)
		}
		return runs, nil
	}
	cpu0 := cpuSeconds()
	untraced, err := loop(untracedDur, false)
	untracedCPU := cpuSeconds() - cpu0
	if err != nil {
		return nil, err
	}
	for _, sr := range untraced {
		walls = append(walls, sr.wall)
	}
	rss := peakRSSMiB()
	out.attempted = 1 + len(untraced)
	out.notef("%d solves: wall p50 %.3f s, %d rounds, %d messages, %d bits, %d scales, %d OLDC calls", len(untraced), median(walls),
		first.res.Stats.Rounds, first.res.Stats.Messages, first.res.Stats.TotalBits, first.res.Scales, first.res.OLDCCalls)
	if !o.trace {
		out.metric("setup_s", median(total), "s")
		out.metric("peak_rss_mb", rss, "MiB")
		out.metric("cpu_ms_per_op", 1e3*untracedCPU/float64(len(untraced)), "ms")
		return out, nil
	}
	traced, err := loop(o.seconds-untracedDur, true)
	if err != nil {
		return nil, err
	}
	out.attempted += len(traced)
	return out, traceSolve(out, o, tr, g, inst, traced, walls, map[string]float64{
		"graph.build_s": median(graphS), "setup.graph_s": median(graphS), "setup.instance_s": median(instS),
	})
}

// traceSolve reduces the traced solves. OnRound is the only hook
// inside a solve, so the solve span is tiled by the OnRound timestamps:
// the intervals between consecutive rounds of one sub-run are the
// engine's (sim.round); the span up to the first round's end is the
// input checks plus the Linial bootstrap's network, Init and only round
// (linial.bootstrap); the gaps between sub-runs and the tail after the
// last round are orchestration, and include each later sub-run's
// set-up, Init and first round, which no hook can separate.
func traceSolve(out *outcome, o options, tr *tracer, g *graph.Graph, inst *coloring.Instance,
	runs []solveRun, untracedWalls []float64, setup map[string]float64) error {
	table := newLayerTable()
	var spans []span
	var reference int64
	var roundUs, engineS, orchS, tracedWalls []float64
	var rounds, active []float64
	for i, sr := range runs {
		solve := span{Name: "solve", ID: tr.nextID.Add(1), Req: int64(i), Start: sr.start, End: sr.finish}
		spans = append(spans, solve)
		reference += solve.dur()
		tracedWalls = append(tracedWalls, sr.wall)
		if len(sr.marks) == 0 {
			return fmt.Errorf("solve %d ran no engine rounds", i)
		}
		var engine int64
		var act float64
		add := func(name string, start, end int64) {
			s := span{Name: name, ID: tr.nextID.Add(1), Parent: solve.ID, Req: int64(i), Start: start, End: end}
			spans = append(spans, s)
			table.add(name, s.dur(), 0)
		}
		add("linial.bootstrap", sr.start, sr.marks[0].at)
		for j, m := range sr.marks {
			act += float64(m.stats.ActiveNodes)
			if j == 0 {
				continue
			}
			prev := sr.marks[j-1]
			if m.stats.Round == prev.stats.Round+1 {
				add("sim.round", prev.at, m.at)
				engine += m.at - prev.at
				roundUs = append(roundUs, float64(m.at-prev.at)/1e3)
			} else {
				add("deltaplus1.orchestration", prev.at, m.at)
			}
		}
		add("deltaplus1.orchestration", sr.marks[len(sr.marks)-1].at, sr.finish)
		engineS = append(engineS, float64(engine)/1e9)
		orchS = append(orchS, sr.wall-float64(engine)/1e9)
		rounds = append(rounds, float64(len(sr.marks)))
		active = append(active, act)
	}
	closure := float64(table.total()) / float64(reference)

	last := runs[len(runs)-1]
	var linialRounds, linialBits, scaleRounds, scaleBits, phaseRounds, phaseBits int
	for k, c := range last.root.Children {
		if k == 0 {
			linialRounds, linialBits = c.Stats.Rounds, c.Stats.TotalBits
		} else {
			scaleRounds += c.Stats.Rounds
			scaleBits += c.Stats.TotalBits
		}
		phaseRounds += c.Stats.Rounds
		phaseBits += c.Stats.TotalBits
	}
	if phaseRounds != last.res.Stats.Rounds || phaseBits != last.res.Stats.TotalBits {
		return fmt.Errorf("phase tree sums to %d rounds and %d bits, the solve reports %d and %d",
			phaseRounds, phaseBits, last.res.Stats.Rounds, last.res.Stats.TotalBits)
	}
	t := time.Now()
	audit := coloring.AuditParallel(g, inst, last.res.Colors, 0)
	auditS := since(t)
	if err := audit.Err(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}

	out.metric("deltaplus1.rounds", float64(last.res.Stats.Rounds), "count")
	out.metric("deltaplus1.message_bits", float64(last.res.Stats.TotalBits), "bits")
	out.metric("sim.rounds", median(rounds), "count")
	out.metric("sim.messages", float64(last.res.Stats.Messages), "count")
	out.metric("sim.active_node_rounds", median(active), "count")
	out.metric("sim.round_us_p50", quantile(roundUs, 0.5), "us")
	out.metric("sim.round_us_p99", quantile(roundUs, 0.99), "us")
	out.metric("sim.engine_s", median(engineS), "s")
	out.metric("deltaplus1.orchestration_s", median(orchS), "s")
	out.metric("deltaplus1.scales", float64(last.res.Scales), "count")
	out.metric("deltaplus1.oldc_calls", float64(last.res.OLDCCalls), "count")
	out.metric("linial.rounds", float64(linialRounds), "count")
	out.metric("linial.bits", float64(linialBits), "bits")
	out.metric("deltaplus1.scale_rounds", float64(scaleRounds), "count")
	out.metric("deltaplus1.scale_bits", float64(scaleBits), "bits")
	out.metric("coloring.audit_s", auditS, "s")
	out.metric("coloring.violations", float64(audit.HardNodes+audit.OffList), "count")
	for k, v := range setup {
		out.metric(k, v, "s")
	}
	out.metric("trace.overhead_ratio", median(tracedWalls)/median(untracedWalls), "ratio")
	out.metric("trace.closure_ratio", closure, "ratio")

	summary := map[string]any{"env": envStamp(o), "closure_ratio": closure, "phases": phaseRecords(last.root, 0, nil)}
	return writeTrace(filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed)), summary, spans, table, reference, closure)
}

// phaseRecord is one node of the Config.Span phase tree, flattened.
type phaseRecord struct {
	Label    string `json:"label"`
	Depth    int    `json:"depth"`
	Rounds   int    `json:"rounds"`
	Messages int    `json:"messages"`
	Bits     int    `json:"bits"`
}

func phaseRecords(s *sim.Span, depth int, acc []phaseRecord) []phaseRecord {
	acc = append(acc, phaseRecord{s.Label, depth, s.Stats.Rounds, s.Stats.Messages, s.Stats.TotalBits})
	for _, c := range s.Children {
		acc = phaseRecords(c, depth+1, acc)
	}
	return acc
}
