// Command coordbotd is the streaming detection daemon: it maintains the
// common-interaction graph of a sliding event-time window over a live
// comment stream, periodically surveys it for coordinated triangles, and
// serves the results over an HTTP/JSON API.
//
// Usage:
//
//	coordbotd -addr :8080 -max 60 -horizon 86400 -interval 30s -cut 25
//
// Endpoints (see internal/detectd):
//
//	POST /v1/ingest      ingest a JSON array or NDJSON stream of comments
//	GET  /v1/triangles   latest survey results
//	GET  /v1/score       live pairwise scores for ?users=a,b,c
//	GET  /v1/communities latest community partition (with -communities)
//	GET  /v1/stats       counters and gauges
//	GET  /healthz        liveness
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on the default mux, served by -pprof-addr
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"coordbot/internal/community"
	"coordbot/internal/detectd"
	"coordbot/internal/graph"
	"coordbot/internal/projection"
	"coordbot/internal/stream"
)

func main() {
	fs := flag.NewFlagSet("coordbotd", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	min := fs.Int64("min", 0, "window lower bound δ1 (seconds, inclusive)")
	max := fs.Int64("max", 60, "window upper bound δ2 (seconds, exclusive)")
	horizon := fs.Int64("horizon", 24*3600, "trailing event-time horizon (seconds)")
	signals := fs.String("signals", "", "comma-separated coordination signals (cocomment, urlshare, hashtag, reply, timebucket), each optionally with a window override like urlshare=0:300 or reply=120; empty = co-comment only over [-min,-max)")
	interval := fs.Duration("interval", 30*time.Second, "survey cadence (0 disables the loop)")
	cut := fs.Uint("cut", 25, "min triangle edge weight")
	tscore := fs.Float64("tscore", 0, "min T score for flagged triplets")
	queue := fs.Int("queue", 256, "ingest queue size (batches)")
	exclude := fs.String("exclude", "AutoModerator,[deleted]", "comma-separated authors to exclude")
	excludeIDs := fs.String("exclude-ids", "", "comma-separated numeric vertex IDs to exclude")
	noHyper := fs.Bool("no-hyper", false, "skip hypergraph validation (no comment log kept)")
	dropLate := fs.Bool("drop-late", false, "drop out-of-order comments instead of clamping to the watermark")
	shards := fs.Int("shards", 0, "live CI store shard count, rounded up to a power of two (0 = default)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	communities := fs.Bool("communities", false, "cluster the pruned graph each cycle and serve /v1/communities")
	communityAlgo := fs.String("community-algo", "leiden", "clustering algorithm: leiden or labelprop")
	resolution := fs.Float64("resolution", 1.0, "Leiden CPM resolution γ")
	minCommunity := fs.Int("min-community", 3, "smallest community size reported")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	algo, err := community.ParseAlgorithm(*communityAlgo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coordbotd:", err)
		os.Exit(2)
	}

	var excl []string
	for _, name := range strings.Split(*exclude, ",") {
		if name = strings.TrimSpace(name); name != "" {
			excl = append(excl, name)
		}
	}
	var exclIDs []graph.VertexID
	for _, raw := range strings.Split(*excludeIDs, ",") {
		if raw = strings.TrimSpace(raw); raw == "" {
			continue
		}
		id, err := strconv.ParseUint(raw, 10, 32)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coordbotd: -exclude-ids: %q is not a vertex ID\n", raw)
			os.Exit(2)
		}
		exclIDs = append(exclIDs, graph.VertexID(id))
	}
	var sigConfigs []stream.SignalConfig
	if *signals != "" {
		sigs, err := projection.ParseSignals(*signals, projection.Window{Min: *min, Max: *max})
		if err != nil {
			fmt.Fprintln(os.Stderr, "coordbotd: -signals:", err)
			os.Exit(2)
		}
		for _, sg := range sigs {
			sigConfigs = append(sigConfigs, stream.SignalConfig{Signal: sg})
		}
	}
	s, err := detectd.NewService(detectd.Config{
		Window:             projection.Window{Min: *min, Max: *max},
		Signals:            sigConfigs,
		Horizon:            *horizon,
		SurveyInterval:     *interval,
		MinTriangleWeight:  uint32(*cut),
		MinTScore:          *tscore,
		ValidateHypergraph: !*noHyper,
		Exclude:            excl,
		ExcludeIDs:         exclIDs,
		QueueSize:          *queue,
		ClampLate:          !*dropLate,
		Shards:             *shards,
		Communities:        *communities,
		Community: community.Config{
			Algorithm:  algo,
			Resolution: *resolution,
			MinSize:    *minCommunity,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "coordbotd:", err)
		os.Exit(1)
	}
	s.Start()

	if *pprofAddr != "" {
		// The default mux carries the net/http/pprof handlers via its
		// blank import; served on a separate listener so profiling stays
		// off the public API address.
		go func() {
			log.Printf("coordbotd: pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("coordbotd: pprof server: %v", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("coordbotd listening on %s (window [%d,%d), horizon %ds, survey every %s)",
		*addr, *min, *max, *horizon, *interval)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("coordbotd: %s — shutting down", sig)
	case err := <-errc:
		log.Printf("coordbotd: server error: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("coordbotd: shutdown: %v", err)
	}
	s.Close() // drain the ingest queue, stop the survey loop
	log.Printf("coordbotd: stopped (%d comments ingested, %d survey cycles)",
		s.Ingested(), s.Cycles())
}
