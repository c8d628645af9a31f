package main

import (
	"fmt"
	"path/filepath"
	"time"

	"listcolor/internal/service"
)

// traceService reduces a service workload's traced phase to per-layer
// metrics and writes the spans and the self-time table.
//
// Each write nests client ⊃ http.write ⊃ durable.apply ⊃ service.apply,
// where service.apply is the replayed ApplyBatch time of the same batch
// version (the WAL is not in the replay, so the remainder of
// durable.apply is the durability layer's own time). Each read nests
// client ⊃ http.read. A layer's self time is the total of its spans
// less the total of its children's, floored at zero; totals rather than
// per-request differences, because the replayed child is timed outside
// its parent and garbage collection lands on different batches in the
// two runs. The http.write span is split at the apply span into the
// wait before it (decode and admission queue) and the rest (response).
// The closure ratio compares the sum of self times with the client
// spans: it drifts from 1 when spans fail to match or the replayed
// applies outlast the live ones.
func traceService(out *outcome, o options, tr *tracer, fin finalState, rp *replayed,
	writes, reads []reqRec, setup map[string]float64) error {
	httpSpans := make(map[int64]span)
	for _, s := range tr.spans {
		httpSpans[s.Req] = s
	}
	table := newLayerTable()
	var spans []span
	var reference int64
	var httpWrite, ingestWait, durableSelf, applyMs, stall, alloc []float64
	var decodeNs, bytes, ops, dirty, hard, absorbed, rounds, recolored, scanned, fallbacks float64
	batches, non2xx := 0, 0
	clientSpan := func(r *reqRec, name string) span {
		s := span{Name: name, ID: tr.nextID.Add(1), Req: r.id, Start: r.start, End: r.end}
		spans = append(spans, s)
		reference += s.dur()
		if r.status < 200 || r.status > 299 {
			non2xx++
		}
		return s
	}
	for i := range writes {
		w := &writes[i]
		c := clientSpan(w, "client.write")
		h, ok := httpSpans[w.id]
		if !ok {
			continue
		}
		h.Parent = c.ID
		spans = append(spans, h)
		table.add("client+network", c.dur(), h.dur())
		httpWrite = append(httpWrite, float64(h.dur())/1e6)
		a, ok := tr.applies[w.version]
		if w.failed() || !ok {
			table.add("http.write", h.dur(), 0)
			continue
		}
		a.Parent = h.ID
		idx := int(w.version) - 1
		replayNs := int64(rp.applyNs[idx])
		r := span{Name: "service.apply", ID: tr.nextID.Add(1), Parent: a.ID, Req: a.Req, Start: a.Start, End: a.Start + replayNs, Replayed: true}
		spans = append(spans, a, r)
		table.add("ingest.wait", a.Start-h.Start, 0)
		table.add("http.write", h.End-a.End, 0)
		table.add("durable", a.dur(), replayNs)
		table.add("service", replayNs, 0)

		ingestWait = append(ingestWait, float64(a.Start-h.Start)/1e6)
		durableSelf = append(durableSelf, float64(a.dur()-replayNs)/1e6)
		applyMs = append(applyMs, float64(replayNs)/1e6)
		alloc = append(alloc, rp.allocBytes[idx])
		if tr.crossed[w.version] {
			stall = append(stall, float64(a.dur())/1e6)
		}
		rep := rp.reports[idx]
		batches++
		decodeNs += rp.decodeNs[idx]
		bytes += float64(w.bytes)
		ops += float64(rep.Applied)
		dirty += float64(rep.Dirty)
		hard += float64(rep.Hard)
		absorbed += float64(rep.Absorbed)
		rounds += float64(rep.Rounds)
		recolored += float64(rep.Recolored)
		scanned += float64(rep.Scanned)
		fallbacks += float64(rep.Fallbacks)
	}
	var httpRead []float64
	for i := range reads {
		r := &reads[i]
		c := clientSpan(r, "client.read")
		h, ok := httpSpans[r.id]
		if !ok {
			continue
		}
		h.Parent = c.ID
		spans = append(spans, h)
		table.add("client+network", c.dur(), h.dur())
		table.add("http.read", h.dur(), 0)
		httpRead = append(httpRead, float64(h.dur())/1e3)
	}
	closure := float64(table.total()) / float64(reference)

	out.metric("http.write_ms_p50", quantile(httpWrite, 0.5), "ms")
	if len(httpRead) > 0 {
		out.metric("http.read_us_p50", quantile(httpRead, 0.5), "us")
	}
	out.metric("http.decode_us_per_op", decodeNs/1e3/ops, "us")
	out.metric("http.req_bytes_per_op", bytes/ops, "bytes")
	out.metric("http.non2xx", float64(non2xx), "count")
	out.metric("ingest.wait_ms_p50", quantile(ingestWait, 0.5), "ms")
	out.metric("ingest.wait_ms_p99", quantile(ingestWait, 0.99), "ms")
	out.metric("ingest.rejected_full", float64(fin.ingest.RejectedFull), "count")
	out.metric("ingest.expired", float64(fin.ingest.Expired), "count")
	out.metric("durable.self_ms_p50", quantile(durableSelf, 0.5), "ms")
	out.metric("durable.wal_bytes_per_op", float64(fin.durability.WALBytes)/float64(rp.ops), "bytes")
	out.metric("durable.wal_records", float64(fin.durability.WALRecords), "count")
	out.metric("durable.checkpoints", float64(fin.durability.Checkpoints-1), "count")
	stallMs := 0.0
	if len(stall) > 0 {
		stallMs = median(stall)
	}
	out.metric("durable.checkpoint_stall_ms", stallMs, "ms")
	out.metric("service.apply_ms_p50", quantile(applyMs, 0.5), "ms")
	out.metric("service.apply_ms_p99", quantile(applyMs, 0.99), "ms")
	out.metric("service.alloc_bytes_per_batch", sum(alloc)/float64(batches), "bytes")
	out.metric("service.dirty_per_op", dirty/ops, "ratio")
	out.metric("service.hard_per_op", hard/ops, "ratio")
	out.metric("service.absorbed_per_op", absorbed/ops, "ratio")
	out.metric("service.read_ns", serviceReadNs(rp.svc, o.seed), "ns")
	out.metric("repair.rounds_per_batch", rounds/float64(batches), "ratio")
	out.metric("repair.recolored_per_op", recolored/ops, "ratio")
	out.metric("repair.scanned_per_op", scanned/ops, "ratio")
	useful := 0.0
	if scanned > 0 {
		useful = recolored / scanned
	}
	out.metric("repair.useful_ratio", useful, "ratio")
	out.metric("repair.fallbacks", fallbacks, "count")
	out.metric("graph.build_s", setup["graph.build_s"], "s")
	out.metric("graph.compactions", float64(fin.stats.Compactions), "count")
	out.metric("coloring.audit_s", rp.auditS, "s")
	out.metric("coloring.violations", float64(rp.audit.HardNodes+rp.audit.OffList), "count")
	for _, k := range []string{"setup.graph_s", "setup.service_init_s", "setup.checkpoint0_s", "setup.instance_s"} {
		out.metric(k, setup[k], "s")
	}
	out.metric("trace.closure_ratio", closure, "ratio")

	summary := map[string]any{"env": envStamp(o), "closure_ratio": closure, "client_total_ms": float64(reference) / 1e6}
	return writeTrace(filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed)), summary, spans, table, reference, closure)
}

// serviceReadNs times Service.Color directly on Zipf-hot nodes.
func serviceReadNs(svc *service.Service, seed int64) float64 {
	nodes := zipfNodes(svc.N(), 1<<18, seed+1)
	t := time.Now()
	sink := 0
	for _, v := range nodes {
		c, _, _ := svc.Color(v)
		sink += c
	}
	ns := float64(time.Since(t)) / float64(len(nodes))
	if sink < 0 {
		panic("negative color")
	}
	return ns
}
