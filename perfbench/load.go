package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"listcolor/internal/service"
)

// reqRec is the client's record of one request. Times are nanoseconds
// on the tracer's clock; due is when an open loop meant to send it
// (equal to start in a closed loop).
type reqRec struct {
	id         int64
	due        int64
	start, end int64
	status     int
	err        string
	// writes: the script position of the body
	client  int
	body    int
	ops     int
	bytes   int
	version uint64
	// reads
	node, color int
}

func (r *reqRec) failed() bool { return r.err != "" || r.status < 200 || r.status > 299 }

// latency is measured from the due time, so a stall also counts against
// the requests it held back.
func (r *reqRec) latency() int64 { return r.end - r.due }

type colorReply struct {
	Node    int    `json:"node"`
	Color   int    `json:"color"`
	Version uint64 `json:"version"`
}

var reqIDs atomic.Int64

// client is one keep-alive HTTP connection to the stack, used by one
// goroutine at a time.
type client struct {
	http *http.Client
	base string
	tr   *tracer
}

func newClient(addr string, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: t, Timeout: 60 * time.Second}, base: "http://" + addr, tr: tr}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(rec *reqRec, method, path string, body []byte) []byte {
	rec.id = reqIDs.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		rec.err = err.Error()
		return nil
	}
	req.Header.Set(reqHeader, strconv.FormatInt(rec.id, 10))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec.start = c.tr.now()
	resp, err := c.http.Do(req)
	if err != nil {
		rec.end = c.tr.now()
		rec.err = err.Error()
		return nil
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.end = c.tr.now()
	rec.status = resp.StatusCode
	if err != nil {
		rec.err = err.Error()
	}
	return out
}

// write posts body and records the batch version it became.
func (c *client) write(rec *reqRec, body []byte) {
	rec.bytes = len(body)
	out := c.do(rec, http.MethodPost, "/v1/updates", body)
	if rec.failed() {
		return
	}
	var resp service.UpdateResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		rec.err = fmt.Sprintf("decoding update response: %v", err)
		return
	}
	if resp.Error != "" {
		rec.err = resp.Error
	}
	rec.ops, rec.version = resp.Applied, resp.Version
}

func (c *client) read(rec *reqRec, node int) {
	rec.node = node
	out := c.do(rec, http.MethodGet, "/v1/color/"+strconv.Itoa(node), nil)
	if rec.failed() {
		return
	}
	var resp colorReply
	if err := json.Unmarshal(out, &resp); err != nil {
		rec.err = fmt.Sprintf("decoding color response: %v", err)
		return
	}
	if resp.Node != node {
		rec.err = fmt.Sprintf("asked for node %d, got %d", node, resp.Node)
	}
	rec.color, rec.version = resp.Color, resp.Version
}

// openLoop sends count requests on one connection at rate per second
// from start (a tracer time), each due at its slot whatever happened
// to earlier ones; a request that cannot start by giveUp (a tracer
// time, 0 for never) is not sent. send performs request i.
func openLoop(tr *tracer, start int64, rate float64, count int, giveUp int64, send func(rec *reqRec, i int)) []reqRec {
	recs := make([]reqRec, 0, count)
	interval := 1e9 / rate
	for i := 0; i < count; i++ {
		due := start + int64(float64(i)*interval)
		if now := tr.now(); now < due {
			time.Sleep(time.Duration(due - now))
		} else if giveUp > 0 && now > giveUp {
			break
		}
		rec := reqRec{due: due}
		send(&rec, i)
		recs = append(recs, rec)
	}
	return recs
}

// genStats reports how well an open loop kept its schedule: late is how
// long after it could have been sent (its due time, or the previous
// response on its connection) a request actually left; connWait is how
// long it waited for the previous response.
func genStats(recs []reqRec) (late, connWait []float64) {
	prevEnd := int64(0)
	for _, r := range recs {
		ready := r.due
		if prevEnd > ready {
			connWait = append(connWait, float64(prevEnd-r.due)/1e6)
			ready = prevEnd
		} else {
			connWait = append(connWait, 0)
		}
		late = append(late, float64(r.start-ready)/1e6)
		prevEnd = r.end
	}
	return late, connWait
}
