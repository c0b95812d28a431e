// Command pasload replays a prompt corpus against a PAS serving tier —
// a single passerve replica, or a cluster behind pasproxy — and emits a
// machine-readable JSON report (latency quantiles, achieved QPS,
// per-replica cache hit ratios). It is the measurement half of the
// sharded serving tier: run it against a 3-replica cluster and the
// per-replica hit deltas show consistent-hash cache locality directly.
//
// Usage:
//
//	pasload -target http://localhost:8424 -n 2000 -qps 500 -c 16 \
//	        -replicas http://localhost:8431,http://localhost:8432,http://localhost:8433 \
//	        -report BENCH_serving.json
//
// The corpus is synthesised by internal/corpus (deterministic for a
// given -corpus-seed) or read from -prompts-file, one prompt per line.
// Key selection is zipfian by default (-skew uniform for the cold
// path), seeded by -seed so two runs replay the identical sequence.
//
// With -tenants N every request carries a synthetic X-PAS-Tenant label
// (t0..tN-1) and the report grows per-tenant rows (requests, shed,
// degraded-by-level, p50/p99). -tenant-skew 10 turns t0 into a noisy
// neighbor offering 10x each other tenant's load — the fair-share
// isolation drill from the overload runbook.
//
// With -churn the run becomes a rolling-restart chaos drill: while the
// load replays at the configured rate, every -replicas member is
// drained in sequence over POST /v1/drain (authenticated by
// -admin-token when the fleet requires it) with exit=true, and the run
// waits -churn-rejoin-timeout for the process supervisor to restart it
// and /v1/status to answer healthy again before rolling the next one.
// The report then carries the churn timeline plus pre-churn and
// recovery cache-hit windows; shed 503s are counted separately from
// errors and do not fail the run.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/corpus"
	"repro/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pasload: ")

	var (
		target      = flag.String("target", "http://localhost:8424", "base URL under test (pasproxy or a passerve replica)")
		mode        = flag.String("mode", loadgen.ModeAugment, "endpoint to replay: augment (POST /v1/augment) or chat (POST /v1/chat/completions)")
		chatModel   = flag.String("chat-model", "pas-bench", "model field sent in chat mode")
		requests    = flag.Int("n", 200, "request count (0 = run until -duration)")
		duration    = flag.Duration("duration", 0, "wall-clock bound (0 = run until -n)")
		qps         = flag.Float64("qps", 0, "offered rate (0 = unthrottled)")
		concurrency = flag.Int("c", 8, "concurrent workers")
		skew        = flag.String("skew", loadgen.SkewZipf, "key distribution: zipf or uniform")
		zipfS       = flag.Float64("zipf-s", 1.2, "zipf s parameter (>1; larger = hotter head)")
		seed        = flag.Int64("seed", 1, "key-sampling seed; equal seeds replay equal sequences")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		tenants     = flag.Int("tenants", 0, "label requests with synthetic tenants t0..tN-1 via X-PAS-Tenant and report per-tenant rows (0 = anonymous)")
		tenantSkew  = flag.Float64("tenant-skew", 1, "tenant t0's traffic weight relative to each other tenant (10 = noisy neighbor)")
		salt        = flag.String("salt", "", "salt sent with every augmentation")
		replicas    = flag.String("replicas", "", "comma-separated replica base URLs to scrape /v1/stats hit deltas from")
		corpusSize  = flag.Int("corpus-size", 500, "synthetic corpus size (ignored with -prompts-file)")
		corpusSeed  = flag.Int64("corpus-seed", 1, "synthetic corpus seed")
		promptsFile = flag.String("prompts-file", "", "read the corpus from this file, one prompt per line")
		report      = flag.String("report", "", "write the JSON report here ('-' or empty = stdout)")

		churn         = flag.Bool("churn", false, "roll every -replicas member (drain via POST /v1/drain, await supervisor restart) while the load runs")
		adminToken    = flag.String("admin-token", "", "admin token sent with drain requests")
		churnWarmup   = flag.Duration("churn-warmup", 2*time.Second, "load before the first drain, filling caches")
		churnMeasure  = flag.Duration("churn-measure", 0, "pre-churn hit-ratio window (0 = same as -churn-cooldown)")
		churnLinger   = flag.Duration("churn-linger", time.Second, "wait after each drain before the replica is considered gone")
		churnDowntime = flag.Duration("churn-downtime", 500*time.Millisecond, "wait between kill and restart phases")
		churnRejoin   = flag.Duration("churn-rejoin-timeout", 30*time.Second, "max wait for a rolled replica to answer /v1/status again")
		churnSettle   = flag.Duration("churn-settle", time.Second, "load between one rejoin and the next drain")
		churnCooldown = flag.Duration("churn-cooldown", 2*time.Second, "load after the last rejoin; the recovery hit-ratio window")
	)
	flag.Parse()

	prompts, err := loadCorpus(*promptsFile, *corpusSize, *corpusSeed)
	if err != nil {
		log.Fatal(err)
	}

	var replicaURLs []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			replicaURLs = append(replicaURLs, r)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := loadgen.Config{
		Target:      *target,
		Mode:        *mode,
		Model:       *chatModel,
		Prompts:     prompts,
		Requests:    *requests,
		Duration:    *duration,
		QPS:         *qps,
		Concurrency: *concurrency,
		Skew:        *skew,
		ZipfS:       *zipfS,
		Seed:        *seed,
		Timeout:     *timeout,
		Salt:        *salt,
		Replicas:    replicaURLs,
		Tenants:     *tenants,
		TenantSkew:  *tenantSkew,
	}

	var rep loadgen.Report
	if *churn {
		if len(replicaURLs) == 0 {
			log.Fatal("-churn needs -replicas: the members to roll")
		}
		targets := make([]loadgen.ChurnTarget, 0, len(replicaURLs))
		for _, u := range replicaURLs {
			u := u
			targets = append(targets, loadgen.ChurnTarget{
				URL: u,
				// Drain with exit=true: the replica advertises draining,
				// quiesces, and exits; its supervisor restarts it. Kill
				// and Restart stay nil — readiness polling observes the
				// restart from the outside.
				Drain: func(ctx context.Context) error {
					return drainReplica(ctx, u, *adminToken)
				},
			})
		}
		log.Printf("rolling %d replicas under load against %s (%s mode, skew %s, %d workers)",
			len(replicaURLs), *target, *mode, *skew, *concurrency)
		rep, err = loadgen.RunWithChurn(ctx, cfg, loadgen.ChurnPlan{
			Targets:       targets,
			Warmup:        *churnWarmup,
			Measure:       *churnMeasure,
			DrainLinger:   *churnLinger,
			DownTime:      *churnDowntime,
			RejoinTimeout: *churnRejoin,
			Settle:        *churnSettle,
			Cooldown:      *churnCooldown,
		})
	} else {
		log.Printf("replaying %d prompts against %s (%s mode, skew %s, %d workers)",
			len(prompts), *target, *mode, *skew, *concurrency)
		rep, err = loadgen.Run(ctx, cfg)
	}
	if err != nil {
		log.Fatal(err)
	}

	out := os.Stdout
	if *report != "" && *report != "-" {
		f, err := os.Create(*report)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatalf("closing report: %v", err)
			}
		}()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}

	log.Printf("%d requests in %.2fs (%.1f QPS): p50 %.2fms p90 %.2fms p99 %.2fms, %d errors, %d degraded, %d shed",
		rep.Requests, rep.DurationSeconds, rep.AchievedQPS,
		rep.LatencyP50Ms, rep.LatencyP90Ms, rep.LatencyP99Ms, rep.Errors, rep.Degraded, rep.Shed)
	for _, row := range rep.Tenants {
		log.Printf("tenant %-6s %5d requests: %4d shed, %4d degraded, p50 %.2fms p99 %.2fms",
			row.Tenant, row.Requests, row.Shed, row.Degraded,
			row.LatencyP50Ms, row.LatencyP99Ms)
	}
	if rep.ClusterHits+rep.ClusterMisses > 0 {
		log.Printf("cluster cache: %d hits / %d misses (ratio %.3f)",
			rep.ClusterHits, rep.ClusterMisses, rep.ClusterHitRatio)
	}
	if rep.Churn != nil {
		for _, e := range rep.Churn.Events {
			suffix := ""
			if e.Error != "" {
				suffix = " ERROR: " + e.Error
			}
			log.Printf("churn +%5dms %-7s %s%s", e.AtMs, e.Phase, e.Replica, suffix)
		}
		log.Printf("hit ratio: pre-churn %.3f (%d lookups) -> recovery %.3f (%d lookups)",
			rep.Churn.PreChurnHitRatio, rep.Churn.PreChurnLookups,
			rep.Churn.RecoveryHitRatio, rep.Churn.RecoveryLookups)
	}
	// Shed 503s are deliberate availability events, not failures; only
	// hard errors fail the run.
	if rep.Errors > 0 {
		log.Printf("first error: %s", rep.FirstError)
		os.Exit(1)
	}
}

// drainReplica asks one replica to drain and exit (its supervisor is
// expected to restart it).
func drainReplica(ctx context.Context, replica, token string) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	body := bytes.NewReader([]byte(`{"exit": true}`))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, replica+"/v1/drain", body)
	if err != nil {
		return fmt.Errorf("pasload: building drain request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("X-PAS-Admin-Token", token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("pasload: draining %s: %w", replica, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("pasload: draining %s: status %d: %s", replica, resp.StatusCode, bytes.TrimSpace(msg))
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return nil
}

// loadCorpus reads prompts from a file or synthesises them.
func loadCorpus(path string, size int, seed int64) ([]string, error) {
	if path == "" {
		cfg := corpus.DefaultConfig()
		cfg.Size = size
		cfg.Seed = seed
		pool, err := corpus.Generate(cfg)
		if err != nil {
			return nil, err
		}
		out := make([]string, len(pool))
		for i, p := range pool {
			out[i] = p.Text
		}
		return out, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pasload: corpus file: %w", err)
	}
	defer f.Close() // read-only file: nothing actionable on close failure
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			out = append(out, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pasload: reading corpus: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pasload: corpus file %s is empty", path)
	}
	return out, nil
}
