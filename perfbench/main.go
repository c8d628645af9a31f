// Command perfbench is the repository's benchmark. It runs one workload
// against the code in the surrounding checkout and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half and the metrics are
// the per-layer ones, and the spans and the self-time table are written
// under .bench_build/trace. Every workload reports every metric that
// BENCHMARK.json lists for the mode. A run whose outputs fail the
// correctness gate exits 1 without a result line. See README.md for the
// workloads and metrics, and run.sh for how to build and run it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const (
	// setupReps is how many times each run sets up its workload;
	// setup_s is the median. With three, the set-up CPU time of
	// serve-mixed spread 0.26 (interquartile range over median) over
	// ten runs.
	setupReps = 5
	// warmupShare is the part of a run's untraced time that warms the
	// heap and caches first: its requests are applied and checked but
	// not measured.
	warmupShare = 0.1
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // the checkout
	dir      string // scratch space for this run
	traceDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	notes             []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

func (o *outcome) metric(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// manifestMetric is a metric as BENCHMARK.json lists it.
type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// manifest holds the metric lists of BENCHMARK.json.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// conform checks that o reports exactly the metrics of want, each in
// its unit. With zeroFill, a metric o lacks is reported as 0: a
// per-layer metric of a layer the workload does not run. Otherwise a
// missing metric is an error, as are a metric want does not list and a
// unit that differs.
func (o *outcome) conform(want []manifestMetric, zeroFill bool) error {
	listed := make(map[string]bool, len(want))
	var filled []string
	for _, w := range want {
		listed[w.Name] = true
		m, ok := o.metrics[w.Name]
		switch {
		case !ok && zeroFill:
			o.metric(w.Name, 0, w.Unit)
			filled = append(filled, w.Name)
		case !ok:
			return fmt.Errorf("metric %s not measured", w.Name)
		case m.Unit != w.Unit:
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		}
	}
	for k := range o.metrics {
		if !listed[k] {
			return fmt.Errorf("metric %s is not in BENCHMARK.json", k)
		}
	}
	if len(filled) > 0 {
		o.notef("not run by this workload, reported as 0: %s", strings.Join(filled, " "))
	}
	return nil
}

var workloads = map[string]func(options) (*outcome, error){
	"serve-mixed":    runServeMixed,
	"ingest-bulk":    runIngestBulk,
	"solve-degplus1": runSolve,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var traceFlag int
	fl.StringVar(&o.workload, "workload", "", "serve-mixed | ingest-bulk | solve-degplus1")
	fl.Int64Var(&o.seed, "seed", 1, "input seed")
	fl.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	fl.IntVar(&traceFlag, "trace", 0, "1: split into an untraced and a traced half and report per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	o.trace = traceFlag == 1
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	o.root = root
	man, err := loadManifest(root)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	o.dir = filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	o.traceDir = filepath.Join(build, "trace")
	for _, d := range []string{o.dir, o.traceDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	defer os.RemoveAll(o.dir)

	env, _ := json.Marshal(envStamp(o))
	fmt.Fprintf(stdout, "env %s\n", env)
	steal0, total0 := cpuTicks()
	out, err := fn(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	want := man.EndToEnd
	if o.trace {
		want = man.PerLayer
	}
	if err := out.conform(want, o.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		// Time the hypervisor gave to other guests: a run with a large
		// share measured a slower machine.
		fmt.Fprintf(stdout, "cpu steal %.1f%% of the machine's CPU time during the run\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	fmt.Fprintf(stdout, "fail_ratio %.6f (%d of %d operations)\n", float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	names := make([]string, 0, len(out.metrics))
	for k, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s is not a number\n", o.workload, k)
			return 1
		}
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", k, out.metrics[k].Value, out.metrics[k].Unit)
	}
	res, _ := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   out.metrics,
	})
	fmt.Fprintln(stdout, string(res))
	return 0
}

func workloadNames() []string {
	var names []string
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// envStamp identifies what a result was measured on and with.
func envStamp(o options) map[string]any {
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit(o.root),
		"source_sha256": sourceHash(o.root),
	}
}

// commit is the checkout's git revision, or "unknown" outside a git
// work tree; source_sha256 identifies the measured code either way.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// sourceHash hashes every .go file and go.mod of the checkout, by path.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
