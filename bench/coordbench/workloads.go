package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"coordbot/internal/detectd"
	"coordbot/internal/graph"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
	"coordbot/internal/stream"
)

// window is the projection delay window every workload runs with (the
// paper's [0s, 60s) and the daemon's flag default).
var window = projection.Window{Min: 0, Max: 60}

// sutConfig is the part of the daemon's configuration the workloads vary.
// flags and service render the same settings for the coordbotd process
// and for the in-process replay, so the two cannot drift.
type sutConfig struct {
	horizon     int64
	interval    time.Duration
	cut         uint32
	signals     string // -signals spec; "" = co-comment only
	communities bool
}

func (c sutConfig) flags(addr string) []string {
	args := []string{
		"-addr", addr,
		"-horizon", fmt.Sprint(c.horizon),
		"-interval", c.interval.String(),
		"-cut", fmt.Sprint(c.cut),
		"-exclude", strings.Join(excluded, ","),
	}
	if c.signals != "" {
		args = append(args, "-signals", c.signals)
	}
	if c.communities {
		args = append(args, "-communities")
	}
	return args
}

func (c sutConfig) parseSignals() ([]projection.Signal, error) {
	if c.signals == "" {
		return projection.DefaultSignals(window), nil
	}
	return projection.ParseSignals(c.signals, window)
}

// service is cmd/coordbotd's detectd.Config for these flags on the SUT's
// CPUs, with the survey loop off: the replay drives cycles itself.
func (c sutConfig) service() (detectd.Config, error) {
	cfg := detectd.Config{
		Window:             window,
		Horizon:            c.horizon,
		MinTriangleWeight:  c.cut,
		ValidateHypergraph: true,
		Exclude:            excluded,
		ClampLate:          true,
		Communities:        c.communities,
		Community:          communityConfig,
		IngestWorkers:      sutProcs(),
	}
	if c.signals != "" {
		sigs, err := c.parseSignals()
		if err != nil {
			return cfg, err
		}
		for _, sg := range sigs {
			cfg.Signals = append(cfg.Signals, stream.SignalConfig{Signal: sg})
		}
	}
	return cfg, nil
}

// plan is one daemon workload instantiated for a seed and a run length.
type plan struct {
	corpus *corpus
	sut    sutConfig
	warm   []batch // applied during set-up
	timed  []batch
	frame  bool
	// outstanding > 0 selects the closed loop: batches go back to back
	// with at most this many un-applied. Otherwise batches follow a seeded
	// Poisson schedule at rate comments/s.
	outstanding int
	rate        float64
	// reads is the reader's request mix, cycled, on a seeded Poisson
	// schedule at readRate requests/s. It always contains /v1/triangles
	// polls: they double as the freshness probe.
	reads    []string
	readRate float64
}

func (p *plan) contentType() string {
	if p.frame {
		return "application/x-coordbot-frame"
	}
	return "application/json"
}

func count(bs []batch) int {
	n := 0
	for _, b := range bs {
		n += b.n
	}
	return n
}

// workload names one traffic mix and why the benchmark runs it.
type workload struct {
	name string
	why  string
	// build instantiates a daemon workload for one round of the given
	// length; nil for batch-archive.
	build func(seed int64, seconds float64) (*plan, error)
}

const day = 24 * 3600

var workloads = []workload{
	{
		name:  "ingest-saturate",
		why:   "closed-loop JSON ingest at saturation with steady eviction: wire, interner, pairing and EdgeTable do the work, survey layers almost none",
		build: buildIngestSaturate,
	},
	{
		name:  "survey-churn",
		why:   "open-loop trickle into a 10k-triangle census surveyed every 100 ms: snapshot, diffs, delta survey, hypergraph memo, warm communities and reads do the work",
		build: buildSurveyChurn,
	},
	{
		name:  "mixed-signals",
		why:   "binary frames into four signal lanes beside a read-heavy score/communities/triangles mix: the same layers used the other way round",
		build: buildMixedSignals,
	},
	{
		name: "batch-archive",
		why:  "the paper's offline run over its two month archives (fixed, whatever the seed): batch projection, full orient/survey/validation and cold Leiden, no wire, eviction or HTTP",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

const epochStart int64 = 1577836800 // 2020-01-01 00:00:00 UTC

// saturateRate sizes ingest-saturate's fixed work: a round's timed phase
// is seconds*saturateRate comments, which takes a daemon on one core of
// the reference host about `seconds` in a slow hour and two thirds of that
// in a fast one. The work, not the time, is what repeats.
const saturateRate = 300000

func buildIngestSaturate(seed int64, seconds float64) (*plan, error) {
	ds, err := generate(redditgen.Config{
		Start: epochStart,
		End:   epochStart + 14*day,
		Organic: redditgen.OrganicConfig{
			Authors: 4000, Pages: 2000, Comments: 80000,
			AuthorZipfS: 1.2, PageZipfS: 1.15,
			PageHalfLife: 4 * 3600, DeletedFraction: 0.02,
		},
		// Every member posts on every ring page inside one window, so a
		// pair's weight is the ring's page count inside the horizon: ~20 a
		// day against a cut of 5.
		Botnets: []redditgen.BotnetSpec{
			{Kind: redditgen.GPT2Ring, Name: "gpt2", Bots: 10, Pages: 280, SubsetSize: 10, MaxDelay: 30},
			{Kind: redditgen.ReshareRing, Name: "reshare", Bots: 8, Pages: 280, SubsetSize: 8, MinDelay: 1, MaxDelay: 5},
		},
		AutoModerator: true,
	}, seed, 8.6, 9.0) // the middle half of what seeds produce
	if err != nil {
		return nil, err
	}
	c := newCorpus(ds, epochStart+14*day)
	warmN := len(c.base)
	c.n = warmN + int(seconds*saturateRate)
	return &plan{
		corpus:      c,
		sut:         sutConfig{horizon: day, interval: time.Second, cut: 5},
		warm:        c.encode(0, warmN, 2000, false),
		timed:       c.encode(warmN, c.n, 2000, false),
		outstanding: 32,
		reads:       []string{"/v1/triangles?limit=50"},
		readRate:    20,
	}, nil
}

func buildSurveyChurn(seed int64, seconds float64) (*plan, error) {
	const rate, warmFrac = 3000.0, 0.4
	// k shrinks the campaigns (and the cut with them) for short smoke
	// runs; from 5 s a round they are full size and the organic background
	// fills the rest of the stream.
	k := math.Min(1, seconds/5)
	pages := int(240 * k)
	total := int(rate * seconds / (1 - warmFrac))
	organic := total - 3*pages*13
	if organic < 2000 {
		organic = 2000
	}
	campaign := func(name string) redditgen.BotnetSpec {
		// Casts of 12 from 28 bots, all offsets inside half a window: a
		// pair co-occurs on pages*(12/28)*(11/27) pages — about 17 by the
		// end of the warm-up and 42 at the end. Against a cut of 8 all of
		// each ring's 3276 triangles exist from the first timed cycle on,
		// so the census churns in weight, not in size, and a cycle costs
		// the same early and late.
		return redditgen.BotnetSpec{Kind: redditgen.GPT2Ring, Name: name, Bots: 28, Pages: pages, SubsetSize: 12, MaxDelay: 30}
	}
	// The campaigns, not the organic background, set this workload's
	// cost, so its density is left alone.
	ds, err := generate(redditgen.Config{
		Start: epochStart,
		End:   epochStart + 14*day,
		Organic: redditgen.OrganicConfig{
			Authors: organic/15 + 1, Pages: organic/20 + 1, Comments: organic,
			AuthorZipfS: 1.2, PageZipfS: 1.15,
			PageHalfLife: 4 * 3600, DeletedFraction: 0.02,
		},
		Botnets:       []redditgen.BotnetSpec{campaign("camp_a"), campaign("camp_b"), campaign("camp_c")},
		AutoModerator: true,
	}, seed, 0, 0)
	if err != nil {
		return nil, err
	}
	c := newCorpus(ds, epochStart+14*day)
	warmN := tieFree(c, int(warmFrac*float64(c.n)))
	cut := uint32(math.Round(8 * k))
	if cut < 2 {
		cut = 2
	}
	return &plan{
		corpus:   c,
		sut:      sutConfig{horizon: 30 * day, interval: 100 * time.Millisecond, cut: cut, communities: true},
		warm:     c.encode(0, warmN, 2000, false),
		timed:    c.encode(warmN, c.n, 50, false),
		rate:     rate,
		reads:    []string{"/v1/triangles?limit=50"},
		readRate: 50,
	}, nil
}

// mixedRate is mixed-signals' offered load in comments/s, chosen to keep
// the daemon at 40-50% of its core on the reference host.
const mixedRate = 80000

func buildMixedSignals(seed int64, seconds float64) (*plan, error) {
	cfg := redditgen.MultiSignalCampaign(1)
	ds, err := generate(cfg, seed, 7.95, 8.3)
	if err != nil {
		return nil, err
	}
	c := newCorpus(ds, cfg.End)
	warmN := len(c.base)
	c.n = warmN + int(seconds*mixedRate)
	p := &plan{
		corpus: c,
		// Half an epoch of horizon holds ~30/25/40 waves of the three
		// campaigns, all above a cut of 10.
		sut:      sutConfig{horizon: 7 * day, interval: 250 * time.Millisecond, cut: 10, signals: "cocomment,urlshare,hashtag,reply", communities: true},
		warm:     c.encode(0, warmN, 2000, true),
		timed:    c.encode(warmN, c.n, 500, true),
		frame:    true,
		rate:     mixedRate,
		readRate: 100,
	}
	// 60% /v1/score over a trio (half planted, half organic), 20%
	// /v1/communities, 20% /v1/triangles.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	trio := func(pool []graph.VertexID) string {
		perm := rng.Perm(len(pool))[:3]
		return fmt.Sprintf("/v1/score?users=%s,%s,%s",
			c.authors[pool[perm[0]]], c.authors[pool[perm[1]]], c.authors[pool[perm[2]]])
	}
	var organic []graph.VertexID
	for id := len(excluded); id < len(c.authors); id++ {
		if !c.truth[graph.VertexID(id)] {
			organic = append(organic, graph.VertexID(id))
		}
	}
	for i := 0; i < 500; i++ {
		switch {
		case i%5 == 3:
			p.reads = append(p.reads, "/v1/communities?limit=20")
		case i%5 == 4:
			p.reads = append(p.reads, "/v1/triangles?limit=50")
		case i%2 == 0:
			p.reads = append(p.reads, trio(c.rings[rng.Intn(len(c.rings))]))
		default:
			p.reads = append(p.reads, trio(organic))
		}
	}
	return p, nil
}

// tieFree moves a stream cut forward until it does not separate two
// comments of equal timestamp (see corpus.encode).
func tieFree(c *corpus, i int) int {
	for i > 0 && i < c.n && c.ts(i) == c.ts(i-1) {
		i++
	}
	return i
}
