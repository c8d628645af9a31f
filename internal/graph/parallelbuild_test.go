package graph

import (
	"errors"
	"runtime"
	"runtime/debug"
	"testing"
)

// sliceSegmented is the adversarial SegmentedStream of the build
// tests: explicit edge slices as segments, including empty segments
// and invalid edges, with Segments grouping the parts contiguously —
// exactly the shapes a generator's fixed chunk grid can produce.
type sliceSegmented struct{ parts [][][2]int }

func (s sliceSegmented) Stream() EdgeStream {
	return func(emit func(u, v int)) {
		for _, part := range s.parts {
			for _, e := range part {
				emit(e[0], e[1])
			}
		}
	}
}

func (s sliceSegmented) Segments(want int) []EdgeStream {
	return groupChunks(len(s.parts), want, func(c int) EdgeStream {
		return func(emit func(u, v int)) {
			for _, e := range s.parts[c] {
				emit(e[0], e[1])
			}
		}
	})
}

// workerCounts is the pinned matrix of the equivalence tests: the
// boundary (1), small powers of two, a prime that does not divide the
// chunk grid, and whatever the host offers.
func workerCounts() []int {
	return []int{1, 2, 4, 7, runtime.GOMAXPROCS(0)}
}

// assertBuildsIdentical builds ss sequentially and in parallel at
// every pinned worker count and demands byte-identity (raw arrays, not
// just fingerprints) or identical error text.
func assertBuildsIdentical(t *testing.T, n int, ss SegmentedStream) {
	t.Helper()
	seq, seqErr := StreamCSR(n, ss.Stream())
	for _, w := range workerCounts() {
		par, parErr := BuildCSRParallel(n, ss, w)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("workers=%d: sequential err %v, parallel err %v", w, seqErr, parErr)
		}
		if seqErr != nil {
			if seqErr.Error() != parErr.Error() {
				t.Fatalf("workers=%d: error text diverges:\n  seq: %v\n  par: %v", w, seqErr, parErr)
			}
			continue
		}
		if !par.EqualBytes(seq) {
			t.Fatalf("workers=%d: parallel build is not byte-identical to StreamCSR", w)
		}
		if par.Fingerprint() != seq.Fingerprint() {
			t.Fatalf("workers=%d: fingerprint diverges", w)
		}
	}
}

func TestBuildCSRParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		n    int
		ss   SegmentedStream
	}{
		{"ring", 10000, RingSegmented(10000)},
		{"ring/min", 3, RingSegmented(3)},
		{"gnp", 5000, GNPSegmented(5000, 0.002, 17)},
		{"gnp/dense", 300, GNPSegmented(300, 0.3, 23)},
		{"gnp/empty", 1000, GNPSegmented(1000, 0, 3)},
		{"powerlaw/single-segment", 2000, SingleSegment(PowerLawStream(2000, 4, 9))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { assertBuildsIdentical(t, tc.n, tc.ss) })
	}
}

// Adversarial segment boundaries: empty segments, all arcs in one
// segment, unsorted emission order (exercising the parallel
// normalization sweep), and invalid edges whose error text must match
// the sequential build's exactly.
func TestBuildCSRParallelAdversarialSegments(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		parts [][][2]int
	}{
		{"empty-segments", 50, [][][2]int{
			{}, {{0, 1}, {1, 2}}, {}, {}, {{2, 3}, {3, 4}}, {},
		}},
		{"all-in-one-segment", 40, [][][2]int{
			{}, {}, {{0, 1}, {1, 2}, {2, 3}, {0, 39}, {5, 6}}, {}, {},
		}},
		{"unsorted-rows", 30, [][][2]int{
			{{9, 0}, {5, 0}}, {{0, 3}, {29, 0}, {0, 1}},
		}},
		{"out-of-range", 20, [][][2]int{
			{{0, 1}}, {{1, 2}, {3, 25}}, {{4, 5}},
		}},
		{"negative-vertex", 20, [][][2]int{
			{{0, 1}}, {}, {{-1, 2}},
		}},
		{"self-loop", 20, [][][2]int{
			{{0, 1}, {2, 2}}, {{3, 4}},
		}},
		{"parallel-edge-within-segment", 20, [][][2]int{
			{{0, 1}, {1, 0}}, {{2, 3}},
		}},
		{"parallel-edge-across-segments", 20, [][][2]int{
			{{0, 1}, {2, 3}}, {{3, 2}},
		}},
		{"two-errors-lowest-segment-wins", 20, [][][2]int{
			{{0, 1}}, {{7, 7}}, {{-3, 1}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertBuildsIdentical(t, tc.n, sliceSegmented{parts: tc.parts})
		})
	}
}

func TestBuildCSRParallelRejectsNegativeN(t *testing.T) {
	if _, err := BuildCSRParallel(-1, RingSegmented(3), 2); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("err = %v, want ErrVertexRange", err)
	}
}

// The 2³¹ boundary guard: with the injected arc limit the parallel
// build must refuse exactly like the sequential one (same sentinel,
// same text).
func TestBuildCSRParallelArcLimitGuard(t *testing.T) {
	defer func(old int64) { parallelArcLimit = old }(parallelArcLimit)
	parallelArcLimit = 10 // ring on 6 vertices needs 12 arcs
	seqErr := checkArcCount(12, 10)
	if seqErr == nil || !errors.Is(seqErr, ErrCSROverflow) {
		t.Fatalf("checkArcCount sanity: %v", seqErr)
	}
	_, err := BuildCSRParallel(6, RingSegmented(6), 2)
	if !errors.Is(err, ErrCSROverflow) {
		t.Fatalf("err = %v, want ErrCSROverflow", err)
	}
	if err.Error() != seqErr.Error() {
		t.Fatalf("error text diverges: %q vs %q", err, seqErr)
	}
}

// divergingSegmented emits a different sequence on its second replay —
// the fill pass must surface ErrStreamDiverged, never corrupt memory.
// The divergent shapes are chosen so every write still lands inside a
// counted row window (fewer edges, or an edge rejected before any
// write), keeping the test race-free by construction.
type divergingSegmented struct {
	n     int
	drop  bool // second replay drops the last edge of segment 0
	stray bool // second replay swaps in an out-of-range edge
}

func (d divergingSegmented) Stream() EdgeStream { return d.Segments(2)[0] }

func (d divergingSegmented) Segments(want int) []EdgeStream {
	replays := make([]int, 2)
	seg := func(s int, edges [][2]int) EdgeStream {
		return func(emit func(u, v int)) {
			replays[s]++
			second := replays[s] > 1
			for i, e := range edges {
				if s == 0 && second {
					if d.drop && i == len(edges)-1 {
						continue
					}
					if d.stray && i == 0 {
						e = [2]int{0, d.n + 5}
					}
				}
				emit(e[0], e[1])
			}
		}
	}
	return []EdgeStream{
		seg(0, [][2]int{{0, 1}, {1, 2}}),
		seg(1, [][2]int{{3, 4}}),
	}
}

func TestBuildCSRParallelDetectsDivergence(t *testing.T) {
	for _, tc := range []struct {
		name string
		ss   divergingSegmented
	}{
		{"dropped-edge", divergingSegmented{n: 10, drop: true}},
		{"stray-edge", divergingSegmented{n: 10, stray: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := BuildCSRParallel(10, tc.ss, 2); !errors.Is(err, ErrStreamDiverged) {
				t.Fatalf("err = %v, want ErrStreamDiverged", err)
			}
		})
	}
}

// Auto-fallback: workers ≤ 0 on a small graph (or a single-core host)
// must never start the segmented machinery, while an explicit
// workers > 1 must always force it — that is what keeps the parallel
// path exercised on single-CPU CI hosts.
func TestBuildCSRParallelAutoFallback(t *testing.T) {
	n := parallelBuildMinN / 4
	before := parallelBuildRuns.Load()
	if _, err := BuildCSRParallel(n, RingSegmented(n), 0); err != nil {
		t.Fatalf("auto build: %v", err)
	}
	if _, err := BuildCSRParallel(n, RingSegmented(n), 1); err != nil {
		t.Fatalf("workers=1 build: %v", err)
	}
	if _, err := BuildCSRParallel(n, SingleSegment(RingStream(n)), 8); err != nil {
		t.Fatalf("single-segment build: %v", err)
	}
	if got := parallelBuildRuns.Load(); got != before {
		t.Fatalf("sequential-path builds took the parallel path %d times", got-before)
	}
	if _, err := BuildCSRParallel(n, RingSegmented(n), 2); err != nil {
		t.Fatalf("workers=2 build: %v", err)
	}
	if got := parallelBuildRuns.Load(); got != before+1 {
		t.Fatalf("explicit workers=2 did not take the parallel path (%d runs)", got-before)
	}
}

// FuzzParallelCSRBuild pins the tentpole invariant: for arbitrary
// segment partitions — including empty, pathological and invalid ones
// — the parallel build is byte-identical to StreamCSR on the
// concatenated stream, or fails with the identical error text, at
// every worker count.
func FuzzParallelCSRBuild(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(30), uint8(5), uint8(0))
	f.Add(int64(2), uint8(3), uint8(1), uint8(1), uint8(3))
	f.Add(int64(3), uint8(200), uint8(255), uint8(64), uint8(7))
	f.Add(int64(4), uint8(50), uint8(0), uint8(9), uint8(1)) // zero edges
	f.Add(int64(5), uint8(7), uint8(40), uint8(2), uint8(2)) // dense + invalid
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, partsRaw, badRaw uint8) {
		n := 2 + int(nRaw)%220
		m := int(mRaw)
		parts := 1 + int(partsRaw)%66
		x := uint64(seed)
		next := func(mod int) int {
			x = splitmix64(x)
			return int(x % uint64(mod))
		}
		edges := make([][2]int, m)
		for i := range edges {
			u, v := next(n), next(n)
			if badRaw > 0 && next(97) == 0 {
				switch next(3) {
				case 0:
					v = u // self-loop
				case 1:
					v = n + next(5) // out of range
				case 2:
					u = -1 - next(3) // negative
				}
			}
			edges[i] = [2]int{u, v}
		}
		// Cut the edge list into `parts` segments at derived positions
		// (duplicates collapse to empty segments).
		cuts := make([]int, parts+1)
		cuts[parts] = m
		for i := 1; i < parts; i++ {
			cuts[i] = next(m + 1)
		}
		for i := 1; i < parts; i++ { // insertion-sort the cut points
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}
		segs := make([][][2]int, parts)
		for i := 0; i < parts; i++ {
			segs[i] = edges[cuts[i]:cuts[i+1]]
		}
		ss := sliceSegmented{parts: segs}

		seq, seqErr := StreamCSR(n, ss.Stream())
		for _, w := range []int{1, 2, 3, 7, 64} {
			par, parErr := BuildCSRParallel(n, ss, w)
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("workers=%d: seq err %v, par err %v", w, seqErr, parErr)
			}
			if seqErr != nil {
				if seqErr.Error() != parErr.Error() {
					t.Fatalf("workers=%d: error text diverges:\n  seq: %v\n  par: %v", w, seqErr, parErr)
				}
				continue
			}
			if !par.EqualBytes(seq) {
				t.Fatalf("workers=%d: bytes diverge on n=%d m=%d parts=%d", w, n, m, parts)
			}
		}
	})
}

// The no-regression guarantee of the auto-fallback: at conformance
// sizes (n ≤ 1024) BuildCSRParallel with workers ≤ 0 must cost the
// same as StreamCSR — it IS StreamCSR plus one branch.
func BenchmarkBuildCSRSequentialSmallN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := StreamCSR(1024, RingSegmented(1024).Stream()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildCSRParallelAutoSmallN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BuildCSRParallel(1024, RingSegmented(1024), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildCSRParallelForcedW4(b *testing.B) {
	ss := GNPSegmented(100000, 4.0/100000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildCSRParallel(100000, ss, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// allocDelta measures the heap bytes fn allocates (single-goroutine
// accounting via TotalAlloc, the codec tests' technique).
func allocDelta(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// Guard for the satellite fix: PowerLawStream replays must reuse the
// pooled sampling scratch instead of reallocating the ≈8·k·n-byte
// pool per replay. Asserted via allocation accounting over repeated
// builds after a warm-up populates the pool; the generous bound (one
// CSR's worth of output per build, plus slack) fails loudly if the
// per-replay make([]int32, ...) ever returns.
//
// sync.Pool may legitimately drop the scratch, and the test pins the
// two ways it can so only a real regression trips the bound: a
// background GC cycle between Put and Get (GC is off while the test
// runs; allocDelta's explicit runtime.GC only moves the pool to its
// victim cache, which Get still reads), and the goroutine migrating to
// another P between Put and Get (a P's private slot is never stolen).
// GOMAXPROCS is set to 1 before the warm-up, since resizing it also
// drops the pool.
func TestPowerLawStreamScratchReuse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n, k := 20000, 4
	StreamedPowerLaw(n, k, 1) // warm the pool

	const builds = 4
	poolBytes := int64(8 * k * n) // one pool reallocation would cost ≈ this
	// Steady-state cost per build: rowPtr (8(n+1)) + col (8·arcs) for
	// two CSRs (count+fill temp is the CSR itself) plus RNG + slack.
	csrBytes := int64(8*(n+1)) + 8*int64(2*((n-k-1)*k+k*(k+1)/2))
	budget := builds * (csrBytes + poolBytes/4)

	var delta int64
	for attempt := 0; attempt < 5; attempt++ {
		delta = allocDelta(func() {
			for i := 0; i < builds; i++ {
				StreamedPowerLaw(n, k, int64(2+i))
			}
		})
		if delta <= budget {
			return
		}
		// A GC between warm-up and measurement can empty the pool;
		// re-warm and retry before declaring a regression.
		StreamedPowerLaw(n, k, 1)
	}
	t.Fatalf("%d builds allocated %d bytes, budget %d (scratch pool not reused?)", builds, delta, budget)
}
