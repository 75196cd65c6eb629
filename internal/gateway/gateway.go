// Package gateway is the fleet's front door: a thin, stateless router
// that places every request on the shard owning its content-addressed
// routing key.
//
// The gateway computes the same canonical cache key the serving peers
// do — both sides call server.FleetRouteKey, which wraps the shared
// internal/cachekey derivation — then forwards the request to the ring
// owner with X-Fleet-Routed set, so the peer serves it locally instead
// of 307-redirecting. Responses stream through unbuffered: a sweep's
// NDJSON rows, anytime events, and job-result streams reach the client
// as the shard emits them.
//
// Each peer sits behind its own circuit breaker (internal/resilience).
// A transport-level failure records against the peer's breaker and the
// request retries once on the key's ring successor — the same peer a
// ring rebuilt without the dead member would choose (see
// fleet.Owners) — so a killed shard costs at most one retry per request
// until its breaker opens, and zero thereafter (open breakers are
// skipped outright). HTTP error statuses from a live peer are the
// peer's own answer and pass through untouched; they neither trip
// breakers nor trigger failover.
//
// Shard-qualified job IDs ("s1-j0000000042") route job reads straight
// to their owning shard with no ring lookup. A job on an unreachable
// shard answers 503 with Retry-After — its journal is private to that
// shard, and the durable-jobs contract (accepted jobs survive kill -9
// and resume on reboot) makes retry-later the honest answer.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multisite/internal/fleet"
	"multisite/internal/resilience"
	"multisite/internal/server"
	"multisite/internal/solve"
)

// maxBodyBytes mirrors the serving layer's request-body bound.
const maxBodyBytes = 4 << 20

// readyProbeTimeout bounds one peer readiness probe.
const readyProbeTimeout = 2 * time.Second

// Options tunes a Gateway.
type Options struct {
	// Peers is the full fleet member list (host:port), the same list
	// every serve -peers flag holds. Required.
	Peers []string
	// Breaker tunes the per-peer circuit breakers; the zero value takes
	// the resilience defaults.
	Breaker resilience.Options
	// Logf receives operational log lines; nil means silent.
	Logf func(format string, args ...any)
}

// peerState is the gateway's per-peer bookkeeping.
type peerState struct {
	addr    string
	label   string
	breaker *resilience.Breaker
	routed  atomic.Int64 // requests the peer answered (first choice or failover)
	retried atomic.Int64 // requests retried AWAY from this peer after it failed
}

// record feeds one forwarding outcome into the peer's breaker. The
// resilience package classifies failures by solve.ErrTransient (its
// home domain is solver backends); a transport-level failure to reach a
// peer is exactly that kind of retryable fault, so it is wrapped before
// recording. Context cancellations pass through unwrapped — Record
// already knows a departed client says nothing about peer health.
func record(p *peerState, err error) {
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("%w: %v", solve.ErrTransient, err)
	}
	p.breaker.Record(err)
}

// Gateway routes fleet traffic. Build with New; serve via Handler.
type Gateway struct {
	ring   *fleet.Ring
	client *http.Client
	logf   func(string, ...any)

	peers   map[string]*peerState // by address
	byLabel map[string]*peerState // by shard label
	ordered []*peerState          // sorted by address (= label order)

	unrouteable atomic.Int64 // requests no peer could take
}

// New builds a gateway over the given fleet members.
func New(opts Options) (*Gateway, error) {
	members := fleet.NormalizeAddrs(opts.Peers)
	if len(members) == 0 {
		return nil, errors.New("gateway: at least one peer is required")
	}
	// No overall timeout: streams are long-lived, and cancellation rides
	// the inbound request's context.
	client := &http.Client{
		// Peers answer 307 only to unrouted requests, and the gateway
		// marks everything routed, so it follows none: a stray 307
		// reaches the client as sent.
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	g := &Gateway{
		ring:    fleet.New(members),
		client:  client,
		logf:    logf,
		peers:   make(map[string]*peerState, len(members)),
		byLabel: make(map[string]*peerState, len(members)),
	}
	breakers := resilience.NewSet(opts.Breaker)
	for _, addr := range g.ring.Members() {
		label, err := fleet.ShardLabel(members, addr)
		if err != nil {
			return nil, fmt.Errorf("gateway: %w", err)
		}
		ps := &peerState{addr: addr, label: label, breaker: breakers.For(addr)}
		g.peers[addr] = ps
		g.byLabel[label] = ps
		g.ordered = append(g.ordered, ps)
	}
	sort.Slice(g.ordered, func(i, j int) bool { return g.ordered[i].addr < g.ordered[j].addr })
	return g, nil
}

// Handler returns the HTTP handler serving the gateway's endpoints —
// the peers' public surface plus the gateway's own health and metrics.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, ep := range []string{"/v1/optimize", "/v1/sweep", "/v1/compare", "/v1/jobs"} {
		ep := ep
		mux.HandleFunc("POST "+ep, func(w http.ResponseWriter, r *http.Request) {
			g.handleCompute(w, r, ep)
		})
	}
	mux.HandleFunc("GET /v1/jobs", g.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJobRead)
	mux.HandleFunc("GET /v1/jobs/{id}/result", g.handleJobRead)
	mux.HandleFunc("GET /v1/solvers", g.handleAnyPeer)
	mux.HandleFunc("GET /v1/socs", g.handleAnyPeer)
	mux.HandleFunc("GET /healthz", g.handleReadyz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("GET /livez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{\"status\":\"ok\"}\n")
	})
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return mux
}

// handleCompute routes one keyed request: derive the routing key from
// the body (exactly as the owning peer would), pick the owner plus its
// ring successor, and forward with single-retry failover.
func (g *Gateway) handleCompute(w http.ResponseWriter, r *http.Request, endpoint string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("request body: %v", err))
		return
	}
	key, status, err := server.FleetRouteKey(endpoint, body)
	if err != nil {
		// Malformed requests die here with the status the peer would
		// have answered; no hop is spent on them.
		writeError(w, status, err)
		return
	}
	g.forward(w, r, g.ring.Owners(key, 2), body)
}

// forward tries the candidate peers in order: the first whose breaker
// admits the call and whose transport succeeds streams its response
// back. A transport failure moves on to the next candidate, counted as a
// retry away from the failed peer; an open breaker is skipped silently.
// Exhausting the candidates is a 502.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, candidates []string, body []byte) {
	var lastErr error
	for i, addr := range candidates {
		ps := g.peers[addr]
		if ps == nil {
			continue
		}
		resp, err := g.call(r, ps, body)
		if err == nil {
			g.stream(w, resp)
			return
		}
		lastErr = err
		if errors.Is(err, resilience.ErrOpen) {
			continue
		}
		if r.Context().Err() != nil {
			// The client is gone; retrying on its behalf is noise.
			return
		}
		g.logf("gateway: peer %s (%s) failed: %v", ps.addr, ps.label, err)
		if i+1 < len(candidates) {
			ps.retried.Add(1)
		}
	}
	g.unrouteable.Add(1)
	if lastErr == nil {
		lastErr = errors.New("no candidate peers")
	}
	writeError(w, http.StatusBadGateway, fmt.Errorf("no shard could take the request: %v", lastErr))
}

// call forwards the inbound request to one peer through the peer's
// breaker. An open breaker refuses without a dial, with an error that
// matches resilience.ErrOpen; otherwise the outcome is recorded, and an
// answer of any status counts in the peer's routed total.
func (g *Gateway) call(r *http.Request, ps *peerState, body []byte) (*http.Response, error) {
	if err := ps.breaker.Allow(); err != nil {
		return nil, err
	}
	resp, err := g.do(r, ps, body)
	record(ps, err)
	if err != nil {
		return nil, err
	}
	ps.routed.Add(1)
	return resp, nil
}

// do forwards the inbound request to one peer, marked routed. The body
// is replayed from the buffered bytes, which is what makes the
// single-retry failover safe for POSTs.
func (g *Gateway) do(r *http.Request, ps *peerState, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, "http://"+ps.addr+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	req.Header.Set(server.HeaderFleetRouted, "1")
	return g.client.Do(req)
}

// stream copies one peer response to the client without buffering:
// headers and status first, then body chunks flushed as they arrive, so
// NDJSON rows stream end-to-end at the shard's pace.
func (g *Gateway) stream(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// handleJobRead routes GET /v1/jobs/{id} and /{id}/result by the ID's
// shard prefix. No ring lookup: the shard that accepted a job stamped
// its label into the ID, and only its private journal knows the job.
func (g *Gateway) handleJobRead(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	label, _, ok := fleet.SplitShardID(id)
	if !ok {
		// An unqualified ID predates fleet mode (or came from a
		// single-node deployment); probe every reachable shard.
		g.probeJob(w, r)
		return
	}
	ps := g.byLabel[label]
	if ps == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("job %s names shard %s, which is not in this fleet", id, label))
		return
	}
	resp, err := g.call(r, ps, nil)
	if err != nil {
		g.shardDown(w, ps)
		return
	}
	g.stream(w, resp)
}

// shardDown answers a read whose owning shard is unreachable: 503 with
// Retry-After. The job is durable in that shard's journal — it will
// answer (or resume the job) when it returns; a 404 or a silent
// failover would be a lie.
func (g *Gateway) shardDown(w http.ResponseWriter, ps *peerState) {
	g.unrouteable.Add(1)
	w.Header().Set("Retry-After", "5")
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("shard %s (%s) is unreachable; its jobs are durable and resume when it returns", ps.label, ps.addr))
}

// probeJob tries every peer for an unqualified job ID, returning the
// first non-404 answer.
func (g *Gateway) probeJob(w http.ResponseWriter, r *http.Request) {
	for _, ps := range g.ordered {
		resp, err := g.call(r, ps, nil)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			continue
		}
		g.stream(w, resp)
		return
	}
	writeError(w, http.StatusNotFound, errors.New("job not found on any reachable shard"))
}

// handleJobList merges every reachable shard's job list into one
// response. Unreachable shards are skipped and named in X-Fleet-Partial
// — a partial list labeled partial beats an error that hides the
// healthy shards' jobs.
func (g *Gateway) handleJobList(w http.ResponseWriter, r *http.Request) {
	type listResp struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	var (
		mu      sync.Mutex
		merged  []json.RawMessage
		missing []string
		wg      sync.WaitGroup
	)
	for _, ps := range g.ordered {
		ps := ps
		wg.Add(1)
		go func() {
			defer wg.Done()
			skip := func() {
				mu.Lock()
				missing = append(missing, ps.label)
				mu.Unlock()
			}
			resp, err := g.call(r, ps, nil)
			if err != nil {
				skip()
				return
			}
			defer resp.Body.Close()
			var lr listResp
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&lr) != nil {
				skip()
				return
			}
			mu.Lock()
			merged = append(merged, lr.Jobs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	// Deterministic order: shard-qualified IDs sort by shard then
	// sequence, so the merged view is stable across gateways.
	sort.Slice(merged, func(i, j int) bool { return jobID(merged[i]) < jobID(merged[j]) })
	sort.Strings(missing)
	if len(missing) > 0 {
		w.Header().Set("X-Fleet-Partial", strings.Join(missing, ","))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Jobs []json.RawMessage `json:"jobs"`
	}{merged})
}

// jobID extracts the "id" field of one job snapshot for merge ordering.
func jobID(raw json.RawMessage) string {
	var v struct {
		ID string `json:"id"`
	}
	json.Unmarshal(raw, &v)
	return v.ID
}

// handleAnyPeer forwards a shard-agnostic GET (solver and SOC listings
// are identical on every peer) to the first reachable peer.
func (g *Gateway) handleAnyPeer(w http.ResponseWriter, r *http.Request) {
	var lastErr error
	for _, ps := range g.ordered {
		resp, err := g.call(r, ps, nil)
		if err != nil {
			lastErr = err
			continue
		}
		g.stream(w, resp)
		return
	}
	g.unrouteable.Add(1)
	if lastErr == nil {
		lastErr = errors.New("no peers configured")
	}
	writeError(w, http.StatusBadGateway, fmt.Errorf("no reachable peer: %v", lastErr))
}

// handleReadyz probes every peer's /readyz concurrently. The gateway is
// ready while at least one shard is — it can still route that shard's
// slice of the key space — and the body names each peer's state either
// way. /healthz aliases this, matching the peers' own convention.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	states := make(map[string]string, len(g.ordered))
	var (
		mu    sync.Mutex
		ready int
		wg    sync.WaitGroup
	)
	for _, ps := range g.ordered {
		ps := ps
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := "down"
			ctx, cancel := context.WithTimeout(r.Context(), readyProbeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, "GET", "http://"+ps.addr+"/readyz", nil)
			if err == nil {
				if resp, err := g.client.Do(req); err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						state = "ready"
					} else {
						state = "starting"
					}
				}
			}
			mu.Lock()
			states[ps.label] = state
			if state == "ready" {
				ready++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	w.Header().Set("Content-Type", "application/json")
	status := "ready"
	if ready == 0 {
		status = "down"
		w.WriteHeader(http.StatusServiceUnavailable)
	} else if ready < len(g.ordered) {
		status = "degraded"
	}
	json.NewEncoder(w).Encode(struct {
		Status string            `json:"status"`
		Ready  int               `json:"ready"`
		Peers  map[string]string `json:"peers"`
	}{status, ready, states})
}

// handleMetrics renders the gateway's fleet counters in Prometheus text
// format, one labeled sample per peer.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	header := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	header("multisite_fleet_ring_members", "Fleet members on the gateway's consistent-hash ring.", "gauge")
	fmt.Fprintf(w, "multisite_fleet_ring_members %d\n", g.ring.Len())
	header("multisite_fleet_peer_healthy", "1 while the peer's circuit breaker is closed (0 = open or half-open).", "gauge")
	for _, ps := range g.ordered {
		healthy := 0
		if ps.breaker.Snapshot().State == resilience.Closed {
			healthy = 1
		}
		fmt.Fprintf(w, "multisite_fleet_peer_healthy{peer=%q,shard=%q} %d\n", ps.addr, ps.label, healthy)
	}
	header("multisite_fleet_routed_total", "Requests the peer answered, whatever the status (first choice or failover target).", "counter")
	for _, ps := range g.ordered {
		fmt.Fprintf(w, "multisite_fleet_routed_total{peer=%q,shard=%q} %d\n", ps.addr, ps.label, ps.routed.Load())
	}
	header("multisite_fleet_retried_total", "Requests retried on the ring successor after the peer failed at the transport level.", "counter")
	for _, ps := range g.ordered {
		fmt.Fprintf(w, "multisite_fleet_retried_total{peer=%q,shard=%q} %d\n", ps.addr, ps.label, ps.retried.Load())
	}
	header("multisite_fleet_breaker_trips_total", "Circuit-breaker transitions into open, per peer.", "counter")
	for _, ps := range g.ordered {
		fmt.Fprintf(w, "multisite_fleet_breaker_trips_total{peer=%q,shard=%q} %d\n", ps.addr, ps.label, ps.breaker.Snapshot().Trips)
	}
	header("multisite_fleet_unrouteable_total", "Requests no peer could take (all candidates down or a dead shard's job read).", "counter")
	fmt.Fprintf(w, "multisite_fleet_unrouteable_total %d\n", g.unrouteable.Load())
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{err.Error()})
}
