// Command serve runs the optimization-as-a-service HTTP server: the
// paper's two-step multi-site optimizer and the sweep grid behind a JSON
// API with a content-addressed result cache, so CI jobs, dashboards, and
// what-if tools can query throughput-optimal configurations without
// linking the library.
//
//	serve -addr :8080
//	curl -s localhost:8080/v1/socs
//	curl -s localhost:8080/v1/solvers
//	curl -s -X POST localhost:8080/v1/optimize \
//	    -d '{"soc":"d695","channels":256,"depth":"64K"}'
//	curl -s -X POST localhost:8080/v1/optimize \
//	    -d '{"soc":"d695","channels":256,"depth":"64K","solver":"exact"}'
//	curl -s -X POST localhost:8080/v1/compare \
//	    -d '{"soc":"d695","channels":256,"depth":"64K"}'
//	curl -sN -X POST localhost:8080/v1/sweep \
//	    -d '{"soc":"pnx8550","depths":"5M:14M:1M","contact_yields":[1,0.999,0.99]}'
//	curl -s -X POST localhost:8080/v1/optimize \
//	    -d '{"soc":"d695","channels":256,"depth":"64K","solver":"portfolio","timeout_ms":250}'
//	curl -s localhost:8080/metrics
//
// Deadline-bounded requests against the portfolio solver degrade
// gracefully (200 with "degraded":true) instead of failing with 504;
// per-backend circuit breakers shed load from persistently failing
// backends. For chaos drills, -inject wraps a backend in a deterministic
// fault schedule:
//
//	serve -addr :8081 -inject "exact=hang,repeat"
//	serve -addr :8081 -inject "exact=delay:200ms,error,pass,repeat" -inject "heuristic=pass,panic"
//
// With -data-dir the server gains its durable tier: computed results
// spill to a crash-safe disk cache (corrupt entries are quarantined and
// recomputed, never served), and POST /v1/jobs enqueues optimize/sweep/
// compare work into a journaled worker pool that survives kill -9 —
// accepted jobs resume on the next boot and /readyz holds traffic until
// the journal replay finishes:
//
//	serve -addr :8080 -data-dir /var/lib/multisite -job-workers 4
//	curl -s -X POST localhost:8080/v1/jobs \
//	    -d '{"type":"sweep","request":{"soc":"d695","depths":"1M:4M:1M"}}'
//	curl -s localhost:8080/v1/jobs/j0000000001
//	curl -sN localhost:8080/v1/jobs/j0000000001/result
//
// -inject-disk splices a deterministic disk-fault schedule (shortwrite,
// eio, torn) under the disk cache and the job journal, mirroring what
// -inject does to solver backends:
//
//	serve -data-dir /tmp/ms -inject-disk "shortwrite,pass,eio,repeat"
//
// With -peers/-self the server joins a shared-nothing fleet: N serve
// processes partition the content-addressed key space over a
// consistent-hash ring, each keeping its caches and job journal fully
// private. A request landing on the wrong shard is answered 307 to the
// owner (curl -L follows it, re-POSTing the body); put cmd/gateway in
// front for proxied routing with failover instead. Job IDs gain a shard
// prefix ("s1-j0000000042") so any ID routes back to its owner:
//
//	serve -addr :8081 -data-dir /var/lib/ms1 -peers localhost:8081,localhost:8082,localhost:8083 -self localhost:8081
//	serve -addr :8082 -data-dir /var/lib/ms2 -peers localhost:8081,localhost:8082,localhost:8083 -self localhost:8082
//	serve -addr :8083 -data-dir /var/lib/ms3 -peers localhost:8081,localhost:8082,localhost:8083 -self localhost:8083
//	curl -sL -X POST localhost:8081/v1/optimize -d '{"soc":"d695","channels":256,"depth":"64K"}'
//
// SIGINT/SIGTERM drain in-flight requests before exiting (bounded by
// -drain), then stop the job worker pool cleanly: running jobs get a
// progress checkpoint and the journal is fsynced before the process
// exits, so the next boot resumes exactly what was accepted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"multisite/internal/faultinject"
	"multisite/internal/server"
	"multisite/internal/solve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "per-sweep engine worker pool size (0 = GOMAXPROCS)")
		concurrency = flag.Int("concurrency", 0, "server-wide concurrent-optimization budget (0 = 2x GOMAXPROCS)")
		cacheCap    = flag.Int("cache-entries", 0, "result cache capacity in entries (0 = default)")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request compute timeout (0 = none)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		dataDir     = flag.String("data-dir", "", "durable-tier directory: disk cache + job journal (empty = in-memory only)")
		jobWorkers  = flag.Int("job-workers", 0, "durable job worker pool size (0 = default; needs -data-dir)")
		peers       = flag.String("peers", "", "fleet mode: comma-separated host:port list of ALL shard peers, this one included")
		self        = flag.String("self", "", "fleet mode: this peer's own address as it appears in -peers")
	)
	var diskPlan *faultinject.DiskPlan
	flag.Func("inject-disk", "disk fault schedule, e.g. shortwrite,pass,eio,torn,repeat (chaos testing only; needs -data-dir)", func(v string) error {
		plan, err := faultinject.ParseDiskPlan(v)
		if err != nil {
			return err
		}
		diskPlan = plan
		return nil
	})
	plans := map[string]*faultinject.Plan{}
	flag.Func("inject", "fault-injection plan as backend=schedule, e.g. exact=hang,repeat (repeatable; chaos testing only)", func(v string) error {
		name, spec, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("want backend=schedule, got %q", v)
		}
		if _, err := solve.Get(name); err != nil {
			return err
		}
		plan, err := faultinject.ParsePlan(spec)
		if err != nil {
			return err
		}
		plans[name] = plan
		return nil
	})
	flag.Parse()

	opts := server.Options{
		Workers:        *workers,
		Concurrency:    *concurrency,
		CacheCapacity:  *cacheCap,
		RequestTimeout: *timeout,
		DataDir:        *dataDir,
		JobWorkers:     *jobWorkers,
		Logf:           log.New(os.Stderr, "serve: ", log.LstdFlags).Printf,
	}
	if *peers != "" {
		opts.FleetPeers = strings.Split(*peers, ",")
		opts.FleetSelf = *self
	} else if *self != "" {
		fmt.Fprintln(os.Stderr, "serve: -self needs -peers")
		os.Exit(2)
	}
	if diskPlan != nil {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "serve: -inject-disk needs -data-dir")
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "serve: CHAOS durable tier wrapped with disk fault plan %s\n", diskPlan)
		opts.DiskInject = diskPlan.Inject
	}
	if len(plans) > 0 {
		opts.WrapSolver = func(name string, sv solve.Solver) solve.Solver {
			if plan := plans[name]; plan != nil {
				fmt.Fprintf(os.Stderr, "serve: CHAOS backend %q wrapped with fault plan %s\n", name, plan)
				return faultinject.Wrap(sv, plan)
			}
			return sv
		}
	}
	s, err := server.NewWithData(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	if lbl := s.ShardLabel(); lbl != "" {
		fmt.Fprintf(os.Stderr, "serve: fleet shard %s of %d peers\n", lbl, len(opts.FleetPeers))
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "serve: listening on %s (solvers: %s; default %s)\n",
		*addr, strings.Join(solve.Names(), ", "), solve.DefaultName)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		// ListenAndServe only returns on failure to serve.
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "serve: %s, draining for up to %s\n", got, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "serve: shutdown:", err)
			os.Exit(1)
		}
		// HTTP is drained; now stop the durable job layer under the same
		// budget — running attempts stop, in-flight progress is
		// checkpointed, and the journal is fsynced before exit, so the
		// next boot resumes exactly what was accepted.
		if err := s.Close(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "serve: job layer shutdown:", err)
			os.Exit(1)
		}
	}
}
