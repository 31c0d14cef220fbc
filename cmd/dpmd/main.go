// Command dpmd serves the dynamic power manager as a long-running
// HTTP JSON service: Algorithm 1 plans (/v1/plan), Algorithm 2
// parameter schedules (/v1/params), Algorithm 3 runtime updates
// (/v1/replan) and bounded simulations (/v1/simulate), plus the
// stateful fleet session layer (/v1/fleet/register, /v1/fleet/tick,
// /v1/fleet/bulk-tick, /v1/fleet/drain) that keeps a live Algorithm 3
// manager per device so ticks need no checkpoint round-trip, with
// /healthz (liveness), /readyz (readiness — 503 the moment a drain
// begins) and a /metrics page in the Prometheus text format.
// Repeated plan requests for the same scenario are served from an LRU
// cache, and a deadline-aware admission controller sheds saturated
// requests that cannot finish inside their deadline, with Retry-After
// on every overload 503.
//
//	dpmd -addr :8080                       # defaults
//	dpmd -addr 127.0.0.1:0 -pool 16        # bigger worker pool
//	dpmd -cache 1024 -timeout 5s           # larger cache, tighter SLO
//	dpmd -cache-shards 1                   # single-lock plan cache
//	dpmd -table-cache 512                  # more memoized (n,f) tables
//	dpmd -log-json                         # structured JSON request logs
//	dpmd -debug-addr 127.0.0.1:6060        # pprof on a second listener
//	dpmd -drain-grace 5s                   # readiness flips before the listener closes
//	dpmd -no-shed                          # queue-until-expired instead of shedding
//	dpmd -fleet-max-sessions 100000        # cap fleet sessions (503 + Retry-After beyond)
//	dpmd -fleet-idle-ttl 1h                # park idle sessions' checkpoints after an hour
//	dpmd -ingest-addr :8125                # StatsD UDP telemetry → live forecasts → divergence replans
//	dpmd -ingest-addr :8125 -ingest-flush 500ms -ingest-predictor exponential
//
// SIGINT/SIGTERM trigger a graceful shutdown that flips /readyz,
// waits out -drain-grace, then drains in-flight requests.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dpm/internal/obs"
	"dpm/internal/params"
	"dpm/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port)")
	pool := flag.Int("pool", 8, "worker pool size (max concurrent planning requests)")
	cacheEntries := flag.Int("cache", 256, "plan cache capacity in entries")
	cacheShards := flag.Int("cache-shards", 0,
		"plan cache shard count, rounded up to a power of two (0 = GOMAXPROCS rounded up, capped at 16; 1 = single lock)")
	tableCache := flag.Int("table-cache", params.DefaultTableCacheEntries,
		"memoized Algorithm 2 table cache capacity in hardware blocks")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout, including pool wait")
	shutdownTimeout := flag.Duration("shutdown-timeout", 15*time.Second, "graceful-shutdown drain deadline")
	maxBody := flag.Int64("max-body", 1<<20, "request body limit in bytes")
	quiet := flag.Bool("quiet", false, "disable per-request logging")
	logJSON := flag.Bool("log-json", false, "emit structured JSON log lines instead of plain text")
	debugAddr := flag.String("debug-addr", "",
		"serve net/http/pprof on this address (empty disables the profiler)")
	drainGrace := flag.Duration("drain-grace", 0,
		"keep the listener open this long after /readyz flips to 503 at shutdown, so load balancers observe not-ready before connections fail")
	noShed := flag.Bool("no-shed", false,
		"disable deadline-aware admission shedding; saturated requests queue until admitted or expired")
	chaosHold := flag.Duration("chaos-hold", 0,
		"hold every pooled request this long after it takes a worker slot — overload drills only")
	fleetPartitions := flag.Int("fleet-partitions", 0,
		"fleet session partition count, rounded up to a power of two (0 = GOMAXPROCS rounded up, capped at 16)")
	fleetMaxSessions := flag.Int("fleet-max-sessions", 0,
		"cap on live fleet sessions; registrations beyond it answer 503 with Retry-After (0 = unlimited)")
	fleetIdleTTL := flag.Duration("fleet-idle-ttl", 0,
		"evict fleet sessions untouched this long, parking their checkpoints for handback on re-register (0 = never evict)")
	ingestAddr := flag.String("ingest-addr", "",
		"run the StatsD telemetry ingestion daemon on this UDP address; registered devices stream counters/gauges and sustained forecast divergence replans their sessions (empty disables)")
	ingestFlush := flag.Duration("ingest-flush", time.Second,
		"ingestion flush interval: each window closes one observed schedule slot per device (0 = manual flushes via POST /v1/ingest/flush only)")
	ingestPredictor := flag.String("ingest-predictor", "last-period",
		"forecast estimator for observed periods: last-period, moving-average or exponential")
	divergenceThreshold := flag.Float64("divergence-threshold", 0.25,
		"observed-vs-planned relative error above which an ingestion slot counts toward a replan")
	ingestEventEnergy := flag.Float64("ingest-event-energy", 1,
		"joules per counted ingestion event (converts device counters to slot energy)")
	flag.Parse()

	cfg := server.Config{
		Addr:             *addr,
		PoolSize:         *pool,
		CacheEntries:     *cacheEntries,
		CacheShards:      *cacheShards,
		RequestTimeout:   *timeout,
		MaxBodyBytes:     *maxBody,
		DebugAddr:        *debugAddr,
		DrainGrace:       *drainGrace,
		DisableShedding:  *noShed,
		ChaosHold:        *chaosHold,
		FleetPartitions:  *fleetPartitions,
		FleetMaxSessions: *fleetMaxSessions,
		FleetIdleTTL:     *fleetIdleTTL,
	}
	if *ingestAddr != "" {
		cfg.IngestAddr = *ingestAddr
		cfg.IngestFlush = *ingestFlush
		cfg.IngestPredictor = *ingestPredictor
		cfg.DivergenceThreshold = *divergenceThreshold
		cfg.IngestEventEnergyJ = *ingestEventEnergy
	}
	if !*quiet {
		if *logJSON {
			cfg.AccessLog = obs.NewLogger(os.Stderr, true)
		} else {
			cfg.Logger = log.New(os.Stderr, "dpmd ", log.LstdFlags|log.Lmsgprefix)
		}
	}
	logStartupConfig(cfg, *tableCache, *shutdownTimeout)
	if err := run(cfg, *tableCache, *shutdownTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "dpmd:", err)
		os.Exit(1)
	}
}

// logStartupConfig emits the effective configuration once at startup —
// every tunable that shapes capacity or latency, resolved after flag
// parsing — so a deployment's settings are recoverable from its first
// log line.
func logStartupConfig(cfg server.Config, tableCacheEntries int, shutdownTimeout time.Duration) {
	fields := []obs.Field{
		obs.F("addr", cfg.Addr),
		obs.F("pool", cfg.PoolSize),
		obs.F("cache_entries", cfg.CacheEntries),
		obs.F("cache_shards", cfg.CacheShards),
		obs.F("table_cache_entries", tableCacheEntries),
		obs.F("request_timeout", cfg.RequestTimeout.String()),
		obs.F("shutdown_timeout", shutdownTimeout.String()),
		obs.F("max_body_bytes", cfg.MaxBodyBytes),
		obs.F("debug_addr", cfg.DebugAddr),
		obs.F("drain_grace", cfg.DrainGrace.String()),
		obs.F("no_shed", cfg.DisableShedding),
		obs.F("fleet_partitions", cfg.FleetPartitions),
		obs.F("fleet_max_sessions", cfg.FleetMaxSessions),
		obs.F("fleet_idle_ttl", cfg.FleetIdleTTL.String()),
		obs.F("ingest_addr", cfg.IngestAddr),
		obs.F("ingest_flush", cfg.IngestFlush.String()),
		obs.F("ingest_predictor", cfg.IngestPredictor),
		obs.F("divergence_threshold", cfg.DivergenceThreshold),
		obs.F("log_json", cfg.AccessLog != nil),
	}
	if cfg.AccessLog != nil {
		cfg.AccessLog.Event("config", fields...)
		return
	}
	if cfg.Logger != nil {
		// Render the same fields in the legacy logger's key=value style.
		line := "config"
		for _, f := range fields {
			line += fmt.Sprintf(" %s=%v", f.Key, f.Value)
		}
		cfg.Logger.Print(line)
	}
}

// testReady, when non-nil, receives the bound listen address once
// the server is up. Only tests set it.
var testReady func(addr string)

func run(cfg server.Config, tableCacheEntries int, shutdownTimeout time.Duration) error {
	if err := params.ResizeSharedTableCache(tableCacheEntries); err != nil {
		return fmt.Errorf("table cache: %w", err)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if testReady != nil {
		go func() {
			for srv.Addr() == "" {
				time.Sleep(time.Millisecond)
			}
			testReady(srv.Addr())
		}()
	}
	return srv.Run(ctx, shutdownTimeout)
}
