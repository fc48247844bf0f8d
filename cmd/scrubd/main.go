// Command scrubd serves scrub-mechanism simulations as a long-running
// daemon: jobs are submitted over HTTP/JSON, executed by a worker pool
// through the resilient replication runner, deduplicated in flight, and
// cached by content address so an identical spec is answered without
// re-simulation.
//
// Usage:
//
//	scrubd [-addr host:port] [-queue N] [-workers N] [-cache N] [-drain D]
//	       [-role standalone|coordinator|worker] [-join URL] [-advertise URL]
//	       [-heartbeat D] [-shard-inflight N] [-journal-dir DIR] [-worker-ttl D]
//	       [-fleet] [-tenant-rate R] [-tenant-burst N] [-aging D] [-version]
//
// Endpoints:
//
//	POST   /v1/jobs               submit a job spec
//	POST   /v1/jobs/batch         submit many specs in one group commit
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          job status and result
//	DELETE /v1/jobs/{id}          cancel a job
//	GET    /healthz               liveness (role, uptime, build, cluster state)
//	GET    /metrics               Prometheus text metrics
//	GET    /v1/cache/index        cached result fingerprints (gossip)
//	GET    /v1/cache/results/{fp} cached result bytes (gossip)
//	POST   /v1/cluster/join       (coordinator) worker registration
//	GET    /v1/cluster/workers    (coordinator) membership listing
//	POST   /v1/cluster/steal      (coordinator) hand out a pending shard
//	POST   /v1/cluster/claims     (coordinator) accept a stolen result
//	POST   /v1/cluster/shards     (worker) execute a replica range
//	*      /v1/fleet/...          (-fleet) the fleet scrub-control plane
//
// With -fleet the daemon runs the fleet scrub-control plane: long-lived
// simulated devices registered under /v1/fleet/devices, each patrolled by
// a background scrub session that is live-reconfigurable (PATCH .../patrol),
// preemptible by on-demand region scrubs (POST .../scrubs), and monitored
// by an error-statistics store that fires simulated Post-Package-Repair
// when a line's correctable-error rate crosses its threshold. With
// -journal-dir, device registrations and patrol reconfigurations are
// journaled and recovered across restarts.
//
// Roles: a standalone node executes jobs itself; a coordinator places
// each job's replica shards on the least-loaded joined worker (falling
// back to local execution when none are live), heartbeats their
// /healthz, sweeps the fleet's result-cache indexes every 2 s, and
// speculatively re-dispatches stragglers (a shard running 1.5× the
// median shard duration, and at least 2 s); a worker joins a
// coordinator with -join, executes pushed shards bounded by
// -shard-inflight, and polls every second to steal queued shards
// whenever it has a free slot. Every role serves the ordinary jobs API
// and the cache-gossip endpoints.
//
// With -journal-dir the daemon keeps a write-ahead job journal there:
// every accepted job is durable before it is acknowledged, and on
// restart the journal is replayed — finished jobs are restored (their
// results re-seed the cache) and interrupted jobs are re-enqueued,
// resuming a sharded campaign from its last completed shard checkpoint.
//
// Admission control: job specs may carry a "priority" (interactive,
// normal, batch — default normal) and a "deadline_at" (RFC 3339); the
// queue serves strict class precedence with earliest-deadline-first
// inside a class, and -aging serves the longest-waiting job next once it
// has waited that long, so a busy interactive stream cannot starve
// batch forever. As the queue fills the daemon walks a fixed shedding
// ladder (healthy → shed-batch → shed-normal → interactive-only at 50,
// 75 and 90% occupancy) and refuses work with 503 + Retry-After;
// per-tenant token buckets (-tenant-rate, -tenant-burst, keyed by the
// X-Scrubd-Tenant header) refuse with 429. Request bodies are capped at
// 1 MiB and batch submissions at 256 specs; either excess gets 413.
// Scheduling fields never enter the job fingerprint: an interactive
// submission still dedups against — and escalates — the same spec queued
// as batch.
//
// On SIGINT/SIGTERM the daemon stops accepting work and drains in-flight
// jobs for up to the -drain budget before force-cancelling them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scrubd:", err)
		os.Exit(1)
	}
}

// Daemon roles.
const (
	roleStandalone  = "standalone"
	roleCoordinator = "coordinator"
	roleWorker      = "worker"
)

// options carries the daemon's flag-settable configuration.
type options struct {
	addr    string
	service service.Config
	drain   time.Duration

	// role selects standalone, coordinator, or worker ("" = standalone).
	role string
	// join is the coordinator base URL a worker announces itself to.
	join string
	// advertise is the worker base URL announced to the coordinator
	// ("" = http://<resolved listen address>).
	advertise string
	// heartbeat is the coordinator's worker-probe interval.
	heartbeat time.Duration
	// shardInflight bounds concurrent shards: executed per worker node,
	// dispatched per worker on a coordinator (0 = role default).
	shardInflight int
	// journalDir, when set, enables the write-ahead job journal and
	// crash recovery from it.
	journalDir string
	// fleet enables the fleet scrub-control plane under /v1/fleet/.
	fleet bool
	// workerTTL evicts dead workers not seen for this long (coordinator
	// role; 0 = never evict).
	workerTTL time.Duration

	// onReady, when non-nil, receives the resolved listen address (tests
	// boot on :0 and need the real port).
	onReady func(addr string)
	// out receives the daemon's log lines (os.Stdout in production).
	out io.Writer
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:8344", "listen address (use :0 for an ephemeral port)")
		queue    = flag.Int("queue", 64, "job queue capacity")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		cache    = flag.Int("cache", 256, "result cache capacity (entries)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful drain budget on shutdown")
		role     = flag.String("role", roleStandalone, "node role: standalone, coordinator, or worker")
		join     = flag.String("join", "", "coordinator URL to join (worker role)")
		adv      = flag.String("advertise", "", "base URL announced to the coordinator (worker role; default derived from -addr)")
		hb       = flag.Duration("heartbeat", 2*time.Second, "worker health-probe interval (coordinator role)")
		inflight = flag.Int("shard-inflight", 0, "concurrent shard bound (0 = role default)")
		jdir     = flag.String("journal-dir", "", "write-ahead job journal directory (empty = no journal)")
		wttl     = flag.Duration("worker-ttl", 0, "evict dead workers not seen for this long (coordinator role; 0 = never)")
		fleetOn  = flag.Bool("fleet", false, "enable the fleet scrub-control plane under /v1/fleet/")
		trate    = flag.Float64("tenant-rate", 0, "per-tenant submission rate limit in jobs/sec (0 = off)")
		tburst   = flag.Int("tenant-burst", 0, "per-tenant submission burst (0 = off)")
		aging    = flag.Duration("aging", 30*time.Second, "serve the longest-waiting job next once it has waited this long, ahead of higher classes (0 = strict precedence)")
		version  = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("scrubd", buildinfo.Get())
		return nil
	}
	shed := service.DefaultShedConfig()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, options{
		addr: *addr,
		service: service.Config{
			QueueCapacity: *queue,
			Workers:       *workers,
			CacheCapacity: *cache,
			Shed:          &shed,
			TenantRate:    *trate,
			TenantBurst:   *tburst,
			Aging:         *aging,
		},
		drain:         *drain,
		role:          *role,
		join:          *join,
		advertise:     *adv,
		heartbeat:     *hb,
		shardInflight: *inflight,
		journalDir:    *jdir,
		fleet:         *fleetOn,
		workerTTL:     *wttl,
		out:           os.Stdout,
	})
}

// chainMetrics composes /metrics appenders; nil when there are none so
// the handler keeps its no-extra-metrics fast path.
func chainMetrics(fns []func(io.Writer) error) func(io.Writer) error {
	if len(fns) == 0 {
		return nil
	}
	if len(fns) == 1 {
		return fns[0]
	}
	return func(out io.Writer) error {
		for _, fn := range fns {
			if err := fn(out); err != nil {
				return err
			}
		}
		return nil
	}
}

// serve runs the daemon until ctx is cancelled, then drains.
func serve(ctx context.Context, opts options) error {
	if opts.role == "" {
		opts.role = roleStandalone
	}
	switch opts.role {
	case roleStandalone, roleCoordinator, roleWorker:
	default:
		return fmt.Errorf("unknown role %q (want standalone, coordinator, or worker)", opts.role)
	}
	if opts.role == roleWorker && opts.join == "" {
		return errors.New("role worker requires -join <coordinator URL>")
	}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}

	// The journal opens (and replays) before the service exists, so
	// recovered jobs re-enqueue ahead of any new traffic.
	var (
		jn       *journal.Journal
		recovery *journal.Recovery
	)
	if opts.journalDir != "" {
		jn, recovery, err = journal.Open(opts.journalDir)
		if err != nil {
			ln.Close()
			return fmt.Errorf("open journal: %w", err)
		}
		defer jn.Close()
		if recovery.Records > 0 || recovery.Skipped > 0 {
			fmt.Fprintf(opts.out, "scrubd: journal replayed %d records (%d skipped) covering %d jobs\n",
				recovery.Records, recovery.Skipped, len(recovery.Jobs))
		}
	}

	// Cluster goroutines (heartbeats, join loop) stop with this context,
	// before the service drains.
	clusterCtx, clusterStop := context.WithCancel(ctx)
	defer clusterStop()

	svcCfg := opts.service
	svcCfg.Journal = jn
	handlerCfg := service.HandlerConfig{Role: opts.role}
	var extraMetrics []func(io.Writer) error
	var worker *cluster.Worker
	mux := http.NewServeMux()
	switch opts.role {
	case roleCoordinator:
		ms := cluster.NewMembershipWith(cluster.MembershipConfig{
			PerWorkerInFlight: opts.shardInflight,
			WorkerTTL:         opts.workerTTL,
		})
		coord := cluster.NewCoordinator(cluster.Config{Members: ms})
		svcCfg.Runner = coord.Runner()
		handlerCfg.LiveWorkers = ms.AliveCount
		handlerCfg.ClusterInfo = func() any { return coord.Snapshot() }
		extraMetrics = append(extraMetrics, coord.WritePrometheus)
		mux.Handle("/v1/cluster/", coord.Handler())
		go ms.HeartbeatLoop(clusterCtx, nil, opts.heartbeat)
		go coord.GossipLoop(clusterCtx, 0)
	case roleWorker:
		worker = cluster.NewWorker(opts.shardInflight)
		extraMetrics = append(extraMetrics, worker.WritePrometheus)
		mux.Handle(cluster.ShardPath, worker.ShardHandler())
	}
	if jn != nil {
		extraMetrics = append(extraMetrics, func(out io.Writer) error {
			return jn.WritePrometheus(out, recovery)
		})
	}

	// The fleet control plane mounts beside the jobs API: long-lived
	// devices, patrol sessions, and telemetry-driven repair. Its device
	// and session specs share the job journal, so a journaled fleet
	// survives restarts.
	var fm *fleet.Manager
	if opts.fleet {
		fm = fleet.NewManager(jn)
		if recovery != nil {
			if err := fm.Recover(recovery); err != nil {
				ln.Close()
				return fmt.Errorf("recover fleet from journal: %w", err)
			}
			if n := len(recovery.FleetDevices); n > 0 {
				fmt.Fprintf(opts.out, "scrubd: recovered %d fleet devices from journal\n", n)
			}
		}
		fm.RegisterRoutes(mux)
		extraMetrics = append(extraMetrics, fm.WritePrometheus)
	}
	handlerCfg.Build = buildinfo.Get()
	handlerCfg.ExtraMetrics = chainMetrics(extraMetrics)

	svc := service.New(svcCfg)
	if recovery != nil {
		n, err := svc.Recover(recovery)
		if err != nil {
			ln.Close()
			return fmt.Errorf("recover from journal: %w", err)
		}
		if n > 0 || len(recovery.Jobs) > 0 {
			fmt.Fprintf(opts.out, "scrubd: recovered %d jobs from journal (%d re-enqueued)\n",
				len(recovery.Jobs), n)
		}
	}
	mux.Handle("/", service.NewHandlerWith(svc, handlerCfg))

	// The resolved address line is load-bearing: smoke tests listen on :0
	// and scrape the actual port from it.
	fmt.Fprintf(opts.out, "scrubd: listening on http://%s\n", ln.Addr())
	fmt.Fprintf(opts.out, "scrubd: role %s\n", opts.role)
	if opts.onReady != nil {
		opts.onReady(ln.Addr().String())
	}

	if opts.role == roleWorker {
		self := opts.advertise
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		logf := func(format string, args ...any) {
			fmt.Fprintf(opts.out, "scrubd: "+format+"\n", args...)
		}
		go cluster.JoinLoop(clusterCtx, nil, opts.join, self, opts.heartbeat, logf)
		go worker.StealLoop(clusterCtx, nil, opts.join, self, 0, logf)
	}

	// Slowloris hygiene: bound how long a client may dribble headers and
	// bodies, and reap idle keep-alive connections. Write timeouts stay
	// off — a job result legitimately streams for as long as the
	// simulation runs.
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(opts.out, "scrubd: draining")
	clusterStop()
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if fm != nil {
		// Patrol sessions finish their current chunk and stop; journaled
		// devices come back on the next boot.
		fm.Shutdown()
	}
	if err := svc.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Fprintln(opts.out, "scrubd: stopped")
	return nil
}
