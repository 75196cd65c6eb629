package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns is the client's connection bound: the machine's two cores, so
// the generator never opens more connections than the server has cores
// to serve them.
const maxConns = 2

// client sends requests over real loopback TCP with at most maxConns
// connections. With a tracer it records one client.request span per
// request and passes the span's ID to the traced handler.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
		tr: tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is what the client saw of one request. First is when the first
// result row arrived: the first NDJSON line of a stream, or the whole
// body of a one-shot JSON response.
type reply struct {
	Due, Send, First, End time.Time
	Status                int
	Digest                string // hex sha256 of the response body
	Rows                  int    // newline-terminated lines
	Body                  []byte // kept only when asked for
	Err                   error
}

func (r reply) latency() time.Duration  { return r.End.Sub(r.Due) }
func (r reply) firstRow() time.Duration { return r.First.Sub(r.Due) }

// do sends one request and reads the response to its end, digesting
// every byte. keep retains the body for the caller.
func (c *client) do(ctx context.Context, method, path string, body []byte, keep bool) reply {
	var rp reply
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		rp.Err = err
		return rp
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var id int64
	if c.tr != nil {
		id = c.tr.newID()
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	rp.Send = time.Now()
	defer func() {
		if c.tr != nil {
			c.tr.add(span{ID: id, Req: id, Name: "client.request", Start: c.tr.at(rp.Send), End: c.tr.at(rp.End)})
		}
	}()
	resp, err := c.hc.Do(req)
	if err != nil {
		rp.End = time.Now()
		rp.Err = err
		return rp
	}
	defer resp.Body.Close()
	rp.Status = resp.StatusCode
	stream := resp.Header.Get("Content-Type") == "application/x-ndjson"
	h := sha256.New()
	var kept bytes.Buffer
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		chunk, err := br.ReadSlice('\n')
		h.Write(chunk)
		if keep {
			kept.Write(chunk)
		}
		if len(chunk) > 0 && chunk[len(chunk)-1] == '\n' {
			rp.Rows++
			if stream && rp.First.IsZero() {
				rp.First = time.Now()
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
			rp.Err = err
			break
		}
	}
	rp.End = time.Now()
	if rp.First.IsZero() {
		rp.First = rp.End
	}
	rp.Digest = hex.EncodeToString(h.Sum(nil))
	if keep {
		rp.Body = kept.Bytes()
	}
	return rp
}

// check reports why a reply is not a complete answer with the wanted
// status, or nil. A streamed answer (a sweep, a job's result) must carry
// exactly the op's rows.
func check(o op, rp reply, status int) error {
	switch {
	case rp.Err != nil:
		return rp.Err
	case rp.Status != status:
		return fmt.Errorf("status %d", rp.Status)
	case status == http.StatusOK && (o.Kind == kindSweep || o.Kind == kindJob) && rp.Rows != o.Rows:
		return fmt.Errorf("%d rows, want %d", rp.Rows, o.Rows)
	}
	return nil
}

// openLoop sends ops at their due times from start, each on its own
// goroutine, and times every request from when it was due: a stall that
// delays later sends shows in their latency.
func openLoop(ctx context.Context, c *client, ops []op, start time.Time, keep func(int) bool) []reply {
	out := make([]reply, len(ops))
	var wg sync.WaitGroup
	for i, o := range ops {
		due := start.Add(o.At)
		sleepUntil(due)
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp := c.do(ctx, http.MethodPost, o.path(), o.Body, keep(i))
			rp.Due = due
			out[i] = rp
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs maxConns clients that each run the next of n ops as
// soon as their previous one has finished; due is when the client became
// free.
func closedLoop(ctx context.Context, n int, run func(i int, due time.Time)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range maxConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := time.Now()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				run(i, due)
				due = time.Now()
			}
		}()
	}
	wg.Wait()
}

// jobReply is one durable job as its client saw it: the submission, then
// the result stream read to its end. Stream.Due is the submission's send
// time, so the stream's latency is the job's turnaround.
type jobReply struct {
	Submit, Stream reply
}

// job submits a durable job and follows its result stream to the end.
func (c *client) job(ctx context.Context, o op, due time.Time) jobReply {
	var jr jobReply
	jr.Submit = c.do(ctx, http.MethodPost, o.path(), o.Body, true)
	jr.Submit.Due = due
	var snap struct {
		ID string `json:"id"`
	}
	if check(o, jr.Submit, http.StatusAccepted) != nil || json.Unmarshal(jr.Submit.Body, &snap) != nil {
		return jr
	}
	jr.Stream = c.do(ctx, http.MethodGet, "/v1/jobs/"+snap.ID+"/result", nil, false)
	jr.Stream.Due = jr.Submit.Send
	return jr
}
