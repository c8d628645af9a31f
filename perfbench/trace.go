package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed interval at a layer boundary, recorded by the
// benchmark around a call into that layer. Times are nanoseconds since
// the tracer's origin. Req ties the spans of one request together: the
// client's request id for HTTP spans, the batch version for the apply
// spans (resolved to the request when the trace is reduced).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Replayed marks the service.apply spans timed in the in-memory
	// replay after the run; their times are on the replay's own clock.
	Replayed bool `json:"replayed,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory while on is set; they are written out
// once the run ends.
type tracer struct {
	on     atomic.Bool
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	// applies holds the durable.apply spans by batch version, and
	// crossed the versions whose apply wrote a checkpoint.
	applies map[uint64]span
	crossed map[uint64]bool
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), applies: make(map[uint64]span), crossed: make(map[uint64]bool)}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.origin)) }

func (tr *tracer) add(s span) {
	s.ID = tr.nextID.Add(1)
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// applied records a durable.apply span, keyed by the batch version.
func (tr *tracer) applied(start, end int64, version uint64, crossedCheckpoint bool) {
	s := span{Name: "durable.apply", ID: tr.nextID.Add(1), Req: int64(version), Start: start, End: end}
	tr.mu.Lock()
	tr.applies[version] = s
	if crossedCheckpoint {
		tr.crossed[version] = true
	}
	tr.mu.Unlock()
}

const reqHeader = "X-Bench-Req"

// middleware wraps the service handler with an http.write/http.read
// span per request while tracing.
func (tr *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		next.ServeHTTP(w, r)
		end := tr.now()
		name := "http.read"
		if r.Method == http.MethodPost {
			name = "http.write"
		}
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		tr.add(span{Name: name, Req: req, Start: start, End: end})
	})
}

// layerTable accumulates, per layer, the time of its spans and of their
// children; self time is the difference of the totals, floored at zero.
type layerTable struct {
	order       []string
	own, inside map[string]int64
}

func newLayerTable() *layerTable {
	return &layerTable{own: make(map[string]int64), inside: make(map[string]int64)}
}

func (t *layerTable) add(layer string, spanNs, childNs int64) {
	if _, ok := t.own[layer]; !ok {
		t.order = append(t.order, layer)
	}
	t.own[layer] += spanNs
	t.inside[layer] += childNs
}

func (t *layerTable) self(layer string) int64 { return max(0, t.own[layer]-t.inside[layer]) }

func (t *layerTable) total() int64 {
	var s int64
	for _, l := range t.order {
		s += t.self(l)
	}
	return s
}

// write prints the self-time table with each layer's share of the
// reference total (the client spans' sum).
func (t *layerTable) write(w io.Writer, reference int64, closure float64) {
	fmt.Fprintf(w, "%-22s %14s %8s\n", "layer", "self_ms", "share")
	for _, l := range t.order {
		fmt.Fprintf(w, "%-22s %14.3f %7.1f%%\n", l, float64(t.self(l))/1e6, 100*float64(t.self(l))/float64(reference))
	}
	verdict := "closes"
	if closure < 0.9 || closure > 1.1 {
		verdict = "DOES NOT CLOSE: the breakdown is untrustworthy"
	}
	fmt.Fprintf(w, "%-22s %14.3f   closure %.4f (%s)\n", "client total", float64(reference)/1e6, closure, verdict)
}

// writeTrace writes the spans as JSONL followed by the self-time table
// next to it; extra is one summary object written first.
func writeTrace(path string, extra any, spans []span, table *layerTable, reference int64, closure float64) error {
	f, err := os.Create(path + ".jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(extra); err != nil {
		f.Close()
		return err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	tf, err := os.Create(path + ".selftime.txt")
	if err != nil {
		return err
	}
	table.write(tf, reference, closure)
	return tf.Close()
}
