// Package fleettest boots a real shared-nothing fleet inside one test
// process: N serve peers (the actual internal/server stack — durable
// tier, jobs, fleet mode) on real TCP listeners, fronted by a real
// gateway. Real sockets rather than httptest keep the hard-kill story
// honest: Kill closes a peer's listener and connections and abandons
// its journal without a final fsync (server.CloseAbrupt), which
// is as close to kill -9 as one process gets, and Restart reboots the
// shard on the same address over the same data directory — exercising
// journal replay, readiness gating, and the gateway's breaker recovery
// end to end.
package fleettest

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"multisite/internal/gateway"
	"multisite/internal/resilience"
	"multisite/internal/server"
)

// Peer is one shard of the test fleet.
type Peer struct {
	// Addr is the peer's host:port — its identity in every ring.
	Addr string
	// Label is the peer's shard label ("s0"...).
	Label string
	// DataDir holds the shard's private disk cache and job journal,
	// reused across Restart.
	DataDir string
	// Server is the live server instance; nil while killed.
	Server *server.Server

	hs *http.Server
	ln net.Listener
}

// URL returns the peer's base URL.
func (p *Peer) URL() string { return "http://" + p.Addr }

// Fleet is a booted test fleet: N peers and one gateway.
type Fleet struct {
	Peers      []*Peer
	PeerAddrs  []string
	Gateway    *gateway.Gateway
	GatewayURL string

	t    *testing.T
	base server.Options
	gwHS *http.Server
}

// Start boots an n-peer fleet plus gateway and waits until every peer
// reports ready. base seeds each peer's server.Options; the harness
// fills DataDir (a per-shard subdirectory of dir) and the fleet fields.
// The gateway's breakers run a short cooldown so kill-recovery tests
// converge quickly.
func Start(t *testing.T, n int, dir string, base server.Options) *Fleet {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("fleettest: listen: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	f := &Fleet{PeerAddrs: addrs, t: t, base: base}
	for i, ln := range listeners {
		p := &Peer{
			Addr:    addrs[i],
			DataDir: fmt.Sprintf("%s/shard-%d", dir, i),
			ln:      ln,
		}
		f.Peers = append(f.Peers, p)
		f.boot(p)
		p.Label = p.Server.ShardLabel()
	}

	gw, err := gateway.New(gateway.Options{
		Peers: addrs,
		// A short cooldown keeps the open→half-open→closed cycle inside
		// test budgets without changing the breaker's semantics.
		Breaker: resilience.Options{Cooldown: 300 * time.Millisecond},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("fleettest: gateway: %v", err)
	}
	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("fleettest: gateway listen: %v", err)
	}
	f.Gateway = gw
	f.GatewayURL = "http://" + gwLn.Addr().String()
	f.gwHS = &http.Server{Handler: gw.Handler()}
	go f.gwHS.Serve(gwLn)

	t.Cleanup(func() {
		f.gwHS.Close()
		for _, p := range f.Peers {
			if p.hs != nil {
				p.hs.Close()
			}
			if p.Server != nil {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				p.Server.Close(ctx)
				cancel()
			}
		}
	})
	for _, p := range f.Peers {
		f.WaitReady(p)
	}
	return f
}

// boot builds and serves one peer on its existing listener.
func (f *Fleet) boot(p *Peer) {
	f.t.Helper()
	opts := f.base
	opts.DataDir = p.DataDir
	opts.FleetPeers = f.PeerAddrs
	opts.FleetSelf = p.Addr
	s, err := server.NewWithData(opts)
	if err != nil {
		f.t.Fatalf("fleettest: peer %s: %v", p.Addr, err)
	}
	p.Server = s
	p.hs = &http.Server{Handler: s.Handler()}
	go p.hs.Serve(p.ln)
}

// Kill hard-kills peer i: listener and connections close abruptly, and
// the journal is abandoned mid-flight with no final fsync. The
// data directory survives for Restart.
func (f *Fleet) Kill(i int) {
	f.t.Helper()
	p := f.Peers[i]
	p.hs.Close()
	p.Server.CloseAbrupt()
	p.hs, p.Server = nil, nil
}

// Restart reboots a killed peer on its original address over its
// surviving data directory, and waits for readiness (journal replay
// done, interrupted jobs re-enqueued).
func (f *Fleet) Restart(i int) {
	f.t.Helper()
	p := f.Peers[i]
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln, err := net.Listen("tcp", p.Addr)
		if err == nil {
			p.ln = ln
			break
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("fleettest: rebind %s: %v", p.Addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	f.boot(p)
	f.WaitReady(p)
}

// WaitReady polls the peer's /readyz until it answers 200.
func (f *Fleet) WaitReady(p *Peer) {
	f.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(p.URL() + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("fleettest: peer %s never became ready (last err %v)", p.Addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// PeerByLabel maps a shard label back to its peer.
func (f *Fleet) PeerByLabel(label string) *Peer {
	for _, p := range f.Peers {
		if p.Label == label {
			return p
		}
	}
	return nil
}
