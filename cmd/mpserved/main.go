// Command mpserved serves the MP-STREAM benchmark as a long-lived HTTP
// JSON service: runs, design-space sweeps, optimizer searches and
// bandwidth–latency surfaces are scheduled onto a bounded worker pool
// and cached by canonical request fingerprint. Repeated requests are
// answered from the cache, and concurrently submitted identical
// requests are simulated only once.
//
// Fleet mode scales the service out: a coordinator (-coordinator, or
// any server given -peers) shards sweep grids and surface ladders
// across registered workers, retries shards lost to dead workers, and
// merges the results — byte-identical to a single node; runs and
// optimizer evaluations that miss its cache are evaluated on a worker.
// A coordinator must not list itself among its workers. A worker is
// just another mpserved pointed at the coordinator with
// -worker -join; it registers its targets and capacity, heartbeats,
// and executes shard jobs through its ordinary /v1/* endpoints.
//
// Examples:
//
//	mpserved -addr :8774
//	mpserved -version
//	mpserved -addr :8774 -coordinator
//	mpserved -addr :8775 -worker -join http://127.0.0.1:8774
//	mpserved -addr :8774 -peers http://10.0.0.7:8774,http://10.0.0.8:8774
//	curl -s localhost:8774/v1/targets
//	curl -s localhost:8774/v1/version
//	curl -s localhost:8774/v1/cluster/workers
//	curl -s -H 'Content-Type: application/json' localhost:8774/v1/run -d '{"target":"aocl","config":{"array_bytes":4194304,"vec_width":16,"optimal_loop":true,"verify":true}}'
//	curl -s -H 'Content-Type: application/json' localhost:8774/v1/sweep -d '{"target":"aocl","op":"triad","space":{"vec_widths":[1,4,16]}}'
//	curl -s -H 'Content-Type: application/json' localhost:8774/v1/optimize -d '{"target":"gpu","op":"copy","space":{"vec_widths":[1,4,16]},"objective":"knee"}'
//	curl -s -H 'Content-Type: application/json' localhost:8774/v1/surface -d '{"target":"gpu"}'
//	curl -s localhost:8774/v1/jobs?state=running
//	curl -sN localhost:8774/v1/jobs/j000001/events
//	curl -s -X DELETE localhost:8774/v1/jobs/j000001
//	curl -s localhost:8774/v1/healthz
//	curl -s localhost:8774/v1/metrics
//
// Baseline drift monitoring: -data-dir persists named performance
// baselines across restarts, POST /v1/check re-measures a baseline's
// config and verdicts the drift, and -check-interval runs every
// registered baseline on a schedule (the sentinel), feeding
// /v1/baselines/alerts and the mpstream_baseline_* metric families:
//
//	mpserved -addr :8774 -data-dir /var/lib/mpstream -check-interval 10m
//	curl -s -H 'Content-Type: application/json' localhost:8774/v1/baselines -d '{"name":"aocl-nightly","from_job":"j000001"}'
//	curl -s localhost:8774/v1/baselines
//	curl -s -H 'Content-Type: application/json' localhost:8774/v1/check -d '{"name":"aocl-nightly"}'
//	curl -sN localhost:8774/v1/baselines/alerts?follow=1
//
// Observability: every request carries an X-Mpstream-Trace ID (minted
// when absent, propagated coordinator→worker), /v1/metrics serves the
// Prometheus text exposition, -log-level/-log-format shape the
// structured logs on stderr, and -debug-addr exposes net/http/pprof
// on a separate listener.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"mpstream/internal/baseline"
	"mpstream/internal/cluster"
	"mpstream/internal/device/targets"
	"mpstream/internal/obs"
	"mpstream/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", ":8774", "listen address")
		workers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue", 0, "job queue depth (0 = default)")
		cacheEntries = flag.Int("cache", 0, "result cache entries (0 = default, negative disables)")
		sweepWorkers = flag.Int("sweep-workers", 0, "per-sweep grid fan-out (0 = GOMAXPROCS divided across the worker pool)")
		maxTimeout   = flag.Duration("max-timeout", 0, "ceiling for per-job timeout_ms deadlines (0 = default 15m)")
		version      = flag.Bool("version", false, "print build and capability info (the GET /v1/version body) and exit")

		dataDir       = flag.String("data-dir", "", "directory for durable state (baseline entries); empty keeps baselines in memory only")
		checkInterval = flag.Duration("check-interval", 0, "re-check every registered baseline on this period (0 disables the drift sentinel)")
		checkPerturb  = flag.Float64("check-perturb", 0, "drift-injection drill: scale check measurements by this factor (bandwidths x f, latencies / f; 0 or 1 = off)")

		coordinator = flag.Bool("coordinator", false, "accept worker registrations and shard sweeps/surfaces across the fleet")
		peers       = flag.String("peers", "", "comma-separated static worker base URLs to probe and shard onto (implies -coordinator)")
		worker      = flag.Bool("worker", false, "join a coordinator as a fleet worker (requires -join)")
		join        = flag.String("join", "", "coordinator base URL to register with, e.g. http://10.0.0.1:8774")
		advertise   = flag.String("advertise", "", "base URL other nodes reach this server at (default: derived from -addr)")
		workerID    = flag.String("worker-id", "", "stable fleet identity (default: the advertised address)")
		shardUnit   = flag.Int("shard-unit", 0, "fleet scheduler: minimum work units (grid points, curves) per shard (0 = default 4)")
		speculation = flag.Bool("speculation", true, "fleet scheduler: speculatively re-execute straggling tail shards on idle workers")

		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "log format: text or json")
		debugAddr = flag.String("debug-addr", "", "listen address for net/http/pprof (empty disables)")
	)
	flag.Parse()

	if *version {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(service.Version(nil)); err != nil {
			fmt.Fprintln(os.Stderr, "mpserved:", err)
			os.Exit(1)
		}
		return
	}
	if *worker && *join == "" {
		fmt.Fprintln(os.Stderr, "mpserved: -worker requires -join <coordinator URL>")
		os.Exit(1)
	}

	log, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpserved:", err)
		os.Exit(1)
	}

	opts := service.Options{
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		CacheEntries:  *cacheEntries,
		SweepWorkers:  *sweepWorkers,
		MaxTimeout:    *maxTimeout,
		CheckInterval: *checkInterval,
		CheckPerturb:  *checkPerturb,
		Logger:        log,
	}
	if *dataDir != "" {
		store, warns, err := baseline.OpenDirStore(*dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpserved:", err)
			os.Exit(1)
		}
		for _, w := range warns {
			log.Warn("mpserved: baseline store", "err", w)
		}
		opts.Baselines = store
		log.Info("mpserved: baseline store open", "dir", *dataDir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpserved:", err)
		os.Exit(1)
	}
	log.Info("mpserved: listening", "addr", ln.Addr().String())

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpserved:", err)
			os.Exit(1)
		}
		log.Info("mpserved: pprof debug endpoint up", "addr", dln.Addr().String())
		go func() {
			// A dedicated mux: pprof must not ride on the service handler
			// where it would be exposed to API clients.
			dmux := http.NewServeMux()
			dmux.HandleFunc("/debug/pprof/", pprof.Index)
			dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			dsrv := &http.Server{Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
			if err := dsrv.Serve(dln); err != nil {
				log.Warn("mpserved: pprof server exited", "err", err)
			}
		}()
	}

	fleet := fleetConfig{
		coordinator: *coordinator || *peers != "",
		peers:       splitPeers(*peers),
		worker:      *worker,
		join:        strings.TrimRight(*join, "/"),
		advertise:   *advertise,
		workerID:    *workerID,
		capacity:    *workers,
		shardUnit:   *shardUnit,
		speculation: *speculation,
		log:         log,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := serve(ln, opts, fleet, stop); err != nil {
		fmt.Fprintln(os.Stderr, "mpserved:", err)
		os.Exit(1)
	}
}

// fleetConfig carries the cluster-mode flags into serve.
type fleetConfig struct {
	coordinator bool
	peers       []string
	worker      bool
	join        string
	advertise   string
	workerID    string
	capacity    int
	shardUnit   int
	speculation bool
	// log receives fleet diagnostics; nil discards them.
	log *slog.Logger
}

func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

// advertiseURL derives the base URL other fleet nodes reach this
// server at when -advertise is not given: the listener's port behind
// the -addr host, falling back to 127.0.0.1 for wildcard binds (a
// single-host fleet; multi-host fleets pass -advertise).
func advertiseURL(explicit string, ln net.Listener) string {
	if explicit != "" {
		return strings.TrimRight(explicit, "/")
	}
	host := "127.0.0.1"
	port := ""
	if ta, ok := ln.Addr().(*net.TCPAddr); ok {
		port = fmt.Sprintf("%d", ta.Port)
		if ip := ta.IP; ip != nil && !ip.IsUnspecified() {
			host = ip.String()
			if ip.To4() == nil {
				host = "[" + host + "]"
			}
		}
	}
	return "http://" + host + ":" + port
}

// serve runs the service on ln until a signal arrives on stop or the
// listener fails, then shuts down gracefully: in-flight HTTP requests
// get 10 seconds to drain and running jobs finish.
func serve(ln net.Listener, opts service.Options, fleet fleetConfig, stop <-chan os.Signal) error {
	log := fleet.log
	if log == nil {
		log = obs.NopLogger()
	}
	if fleet.coordinator {
		coord := cluster.New(cluster.Options{
			Logger:             log,
			ShardUnit:          fleet.shardUnit,
			DisableSpeculation: !fleet.speculation,
		})
		defer coord.Close()
		coord.WatchPeers(fleet.peers)
		opts.Cluster = coord
		// Origin tags this process's spans in merged fleet traces and
		// its own samples in the federated exposition.
		opts.Origin = "coordinator"
		log.Info("mpserved: coordinating", "static_peers", len(fleet.peers))
	}

	var self cluster.WorkerInfo
	if fleet.worker {
		self = cluster.WorkerInfo{
			ID:       fleet.workerID,
			Addr:     advertiseURL(fleet.advertise, ln),
			Capacity: fleet.capacity,
		}
		if self.ID == "" {
			self.ID = self.Addr
		}
		if self.Capacity <= 0 {
			self.Capacity = runtime.GOMAXPROCS(0)
		}
		for _, dev := range targets.All() {
			self.Targets = append(self.Targets, dev.Info().ID)
		}
		// A worker's spans carry its fleet identity, so the coordinator's
		// assembled trace names which worker ran each shard.
		opts.Origin = self.ID
	}

	svc := service.New(opts)
	defer svc.Close()

	if fleet.worker {
		joinCtx, joinCancel := context.WithCancel(context.Background())
		defer joinCancel()
		go cluster.Join(joinCtx, cluster.JoinOptions{
			Coordinator: fleet.join,
			Self:        self,
			Logger:      log,
		})
	}

	httpSrv := &http.Server{
		Handler: svc.Handler(),
		// Bound slow clients: a stalled header or a parked idle
		// connection must not pin a goroutine forever.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		log.Info("mpserved: shutting down", "signal", sig.String())
		// A second signal skips the graceful drain entirely.
		go func() {
			if s, ok := <-stop; ok {
				log.Warn("mpserved: exiting immediately", "signal", s.String())
				os.Exit(1)
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return httpSrv.Shutdown(ctx)
	}
}
