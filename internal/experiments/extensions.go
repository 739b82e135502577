package experiments

import (
	"sort"

	"coordbot/internal/backbone"
	"coordbot/internal/baseline"
	"coordbot/internal/graph"
	"coordbot/internal/pipeline"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
	"coordbot/internal/stats"
	"coordbot/internal/temporal"
)

// S4 compares the paper's fixed weight threshold against the
// hypergeometric backbone of Neal (2014) — the thesis's reference [8] —
// as the edge-importance filter for the CI graph.
func (l *Lab) S4() (*Report, error) {
	r := &Report{
		ID:    "s4",
		Title: "Backbone extraction vs fixed weight threshold (ref [8])",
		Paper: "the paper selects important edges with fixed weight cutoffs (10/25) and cites Neal 2014 for projection backbones; the backbone keeps statistically surprising edges regardless of raw weight",
	}
	d := l.Dataset("jan2020")
	b := l.BTM("jan2020")
	res, err := l.Run("jan2020", projection.Window{Min: 0, Max: 60}, 25)
	if err != nil {
		return nil, err
	}
	ci := res.CI
	bots := d.AllBots()

	botEdge := func(g graph.CIView) (bot, organic int) {
		for _, e := range g.Edges() {
			if bots[e.U] && bots[e.V] {
				bot++
			} else {
				organic++
			}
		}
		return bot, organic
	}

	thr := ci.ThresholdView(25)
	tb, to := botEdge(thr)
	r.addf("threshold 25: %d edges kept of %d (%d bot–bot, %d involving organic)",
		thr.NumEdges(), ci.NumEdges(), tb, to)

	alpha := 1e-9
	bb := backbone.Extract(ci, b.NumPages(), alpha)
	bbb, bbo := botEdge(bb)
	r.addf("backbone α=%.0e: %d edges kept of %d (%d bot–bot, %d involving organic)",
		alpha, bb.NumEdges(), ci.NumEdges(), bbb, bbo)

	// Recall of intra-botnet edges that exist in the CI graph at all.
	cib, _ := botEdge(ci)
	if cib > 0 {
		r.addf("bot-edge recall: threshold %.3f, backbone %.3f (of %d CI bot–bot edges)",
			float64(tb)/float64(cib), float64(bbb)/float64(cib), cib)
	}
	// The backbone's structural advantage: statistically surprising
	// coordination *below* the fixed cutoff, invisible to any weight
	// threshold. (Its overall precision/recall trade against the
	// threshold depends on corpus size: the hypergeometric null tightens
	// as the page universe N grows.)
	subThreshold := 0
	for _, e := range bb.Edges() {
		if e.W < 25 && bots[e.U] && bots[e.V] {
			subThreshold++
		}
	}
	r.addf("bot–bot edges below weight 25 recovered by backbone: %d (threshold recovers 0 by construction)",
		subThreshold)
	return r, nil
}

// X5 profiles the planted behaviours' response delays and classifies them,
// making the paper's narrative distinctions (§3.1.1 vs §3.1.2) computable.
func (l *Lab) X5() (*Report, error) {
	r := &Report{
		ID:    "x5",
		Title: "Behaviour classification from delay profiles (extension)",
		Paper: "the paper distinguishes behaviours narratively: share/reshare responds 'almost immediately', text generation is 'slower moving'; window choice targets them (§2.2)",
	}
	d := l.Dataset("jan2020")
	b := l.BTM("jan2020")
	cls := temporal.DefaultClassifier()
	groups := []struct {
		label   string
		members []graph.VertexID
		want    temporal.Class
	}{
		{"mlbstreams (reshare)", d.Truth["mlbstreams"], temporal.Burst},
		{"gpt2 (text generation)", d.Truth["gpt2"], temporal.Paced},
		{"smiley (reply triggers)", d.Truth["smiley"], temporal.Burst},
		{"bookclub (benign cohort)", d.Benign["bookclub"], temporal.Scattered},
	}
	for _, g := range groups {
		p := temporal.ProfileGroup(b, g.members)
		got := cls.Classify(p)
		mark := "✓"
		if got != g.want {
			mark = "✗ (want " + g.want.String() + ")"
		}
		r.addf("%s %s", p.Report(g.label, got), mark)
	}
	return r, nil
}

// X6 studies window targeting on a fourth behaviour class, sockpuppet
// conversation chains (Khaund et al., the paper's survey reference [10]):
// staged pairwise threads paced at minutes, invisible to a 60s window,
// fully captured at 600s — and a genuine blind spot for the triplet-
// normalized T score, since pairwise rotation spreads each puppet's P'.
func (l *Lab) X6() (*Report, error) {
	r := &Report{
		ID:    "x6",
		Title: "Sockpuppet conversation chains and window targeting (extension)",
		Paper: "§2.2: the time window targets behaviour types; §4.2: triplet focus cannot directly assess pairwise-rotating groups",
	}
	cfg := redditgen.Config{
		Seed: 606, Start: 0, End: 14 * 24 * 3600,
		Organic: redditgen.OrganicConfig{
			Authors: scaleIntX6(5000, l.Scale), Pages: scaleIntX6(2500, l.Scale),
			Comments: scaleIntX6(100000, l.Scale), PageHalfLife: 2 * 3600,
			DeletedFraction: 0.02,
		},
		Botnets: []redditgen.BotnetSpec{{
			Kind: redditgen.SockpuppetChain, Name: "puppets",
			Bots: 6, Pages: 220, SubsetSize: 2,
			MinDelay: 60, MaxDelay: 300,
		}},
		AutoModerator: true,
	}
	d := redditgen.Generate(cfg)
	b := d.BTM()
	puppets := make(map[graph.VertexID]bool)
	for _, id := range d.Truth["puppets"] {
		puppets[id] = true
	}
	for _, max := range []int64{60, 600} {
		res, err := pipeline.Run(b, pipeline.Config{
			Window:            projection.Window{Min: 0, Max: max},
			MinTriangleWeight: 10,
			Exclude:           d.Helpers,
		})
		if err != nil {
			return nil, err
		}
		m := pipeline.Evaluate(res.FlaggedAuthors(), puppets)
		r.addf("window (0s,%4ds): %d triangles; puppet recall %.2f", max, len(res.Triangles), m.Recall)
	}
	p := temporal.ProfileGroup(b, d.Truth["puppets"])
	r.addf("%s", p.Report("puppets delay profile", temporal.DefaultClassifier().Classify(p)))
	return r, nil
}

func scaleIntX6(n int, s float64) int {
	v := int(float64(n) * s)
	if v < 1 {
		v = 1
	}
	return v
}

// X4 compares the paper's temporal pipeline against the Pacheco-style
// co-share similarity baseline (§1.3's prior work) on a dataset containing
// both real botnets and a benign community cohort — spatially identical to
// a botnet, temporally innocent.
func (l *Lab) X4() (*Report, error) {
	r := &Report{
		ID:    "x4",
		Title: "Temporal pipeline vs co-share similarity baseline (Pacheco et al.)",
		Paper: "prior work targets share networks via co-share similarity without timing (§1.3); the thesis's windowed projection uses time, so benign tight communities do not alarm it",
	}
	d := l.Dataset("jan2020")
	b := l.BTM("jan2020")
	truth := d.AllBots()
	cohort := make(map[graph.VertexID]bool)
	for _, id := range d.Benign["bookclub"] {
		cohort[id] = true
	}

	// The pipeline's operating point: cutoff 10 plus normalized score.
	res, err := l.Run("jan2020", projection.Window{Min: 0, Max: 60}, 10)
	if err != nil {
		return nil, err
	}
	flagged := make(map[graph.VertexID]bool)
	for _, tr := range res.Triangles {
		if tr.T >= 0.5 {
			flagged[tr.X] = true
			flagged[tr.Y] = true
			flagged[tr.Z] = true
		}
	}
	pm := pipeline.Evaluate(flagged, truth)
	pCohort := 0
	for a := range flagged {
		if cohort[a] {
			pCohort++
		}
	}
	r.addf("pipeline (cutoff 10, T >= 0.5): %s", pm)
	r.addf("pipeline flags %d/%d benign cohort members", pCohort, len(cohort))

	// Walk the baseline's similarity-ranked edges until it matches the
	// pipeline's recall, and measure what it swallowed on the way.
	edges := baseline.SimilarityNetwork(b, baseline.Options{
		Method:  baseline.TFIDFCosine,
		Exclude: d.Helpers,
	})
	r.addf("baseline similarity network: %d candidate edges (TF-IDF cosine)", len(edges))
	bFlag := make(map[graph.VertexID]bool)
	botsFound, rank := 0, 0
	for _, e := range edges {
		rank++
		for _, a := range []graph.VertexID{e.U, e.V} {
			if !bFlag[a] {
				bFlag[a] = true
				if truth[a] {
					botsFound++
				}
			}
		}
		if float64(botsFound)/float64(len(truth)) >= pm.Recall {
			break
		}
	}
	bm := pipeline.Evaluate(bFlag, truth)
	bCohort := 0
	for a := range bFlag {
		if cohort[a] {
			bCohort++
		}
	}
	r.addf("baseline at matched recall (top %d edges): %s", rank, bm)
	r.addf("baseline flags %d/%d benign cohort members at that depth", bCohort, len(cohort))
	// Where do cohort pairs rank? Their similarity is botnet-like.
	firstCohortRank := 0
	for i, e := range edges {
		if cohort[e.U] && cohort[e.V] {
			firstCohortRank = i + 1
			break
		}
	}
	if firstCohortRank > 0 {
		r.addf("highest-ranked cohort pair sits at similarity rank %d of %d (top %.2f%%)",
			firstCohortRank, len(edges), 100*float64(firstCohortRank)/float64(len(edges)))
	}
	return r, nil
}

// X8 validates the pluggable-signal layer end to end: the
// MultiSignalCampaign corpus plants three campaigns, each coordinating
// through exactly one non-default signal (fresh-URL waves, hashtag
// bursts, reply dogpiles) and nearly invisible to page co-commenting. A
// four-signal projection must recover each campaign as a thresholded
// component whose weight the per-signal attribution assigns to the
// planted signal, while the benign link-club cohort (shared URLs,
// innocent timing) stays below the cutoff.
func (l *Lab) X8() (*Report, error) {
	r := &Report{
		ID:    "x8",
		Title: "Multi-signal campaign recovery with per-signal attribution (extension)",
		Paper: "the paper projects page co-commenting only (§2.1) but frames the method as general coordinated-behaviour detection; URL co-sharing and hashtag bursts are the signals its cited prior work (Pacheco et al.) targets",
	}
	const cut = 25
	d := l.Dataset("multisignal")
	w := projection.Window{Min: 0, Max: 60}
	sigNames := []string{"cocomment", "urlshare", "hashtag", "reply"}
	sigs := make([]projection.Signal, len(sigNames))
	for i, name := range sigNames {
		sg, err := projection.NewSignal(name, w)
		if err != nil {
			return nil, err
		}
		sigs[i] = sg
	}
	g, err := projection.ProjectSignalsSharded(d.Comments, sigs,
		projection.Options{Exclude: d.Helpers})
	if err != nil {
		return nil, err
	}
	snap := g.Snapshot()
	r.addf("4-signal merged CI graph: %d edges over %d authors", snap.NumEdges(), snap.NumVertices())
	comps := graph.ConnectedComponents(snap.ThresholdView(cut))
	r.addf("components at cutoff %d: %d", cut, len(comps))

	wantSig := map[string]string{"urlring": "urlshare", "tagburst": "hashtag", "dogpile": "reply"}
	for _, name := range []string{"urlring", "tagburst", "dogpile"} {
		members := d.Truth[name]
		comp := componentOf(comps, members)
		if comp == nil {
			r.addf("%-8s NOT RECOVERED (no member above cutoff)", name)
			continue
		}
		inComp := make(map[graph.VertexID]bool, len(comp.Authors))
		for _, m := range comp.Authors {
			inComp[m] = true
		}
		in := 0
		for _, m := range members {
			if inComp[m] {
				in++
			}
		}
		mix := snap.SignalMix(members)
		var total uint64
		best := 0
		for si, wgt := range mix {
			total += wgt
			if wgt > mix[best] {
				best = si
			}
		}
		frac := 0.0
		if total > 0 {
			frac = float64(mix[best]) / float64(total)
		}
		mark := "✓"
		if sigNames[best] != wantSig[name] || in < len(members) {
			mark = "✗"
		}
		r.addf("%-8s %d/%d members in one component (size %d); dominant signal %s carries %.0f%% of pair weight (want %s) %s",
			name, in, len(members), comp.Size(), sigNames[best], 100*frac, wantSig[name], mark)
	}

	// The confuser: spatial URL overlap at innocent timing must stay
	// below the cutoff on every pair.
	cohort := d.Benign["linkclub"]
	var maxW uint32
	for i := range cohort {
		for j := i + 1; j < len(cohort); j++ {
			if wgt := snap.Weight(cohort[i], cohort[j]); wgt > maxW {
				maxW = wgt
			}
		}
	}
	r.addf("benign linkclub: max pairwise weight %d (cutoff %d)", maxW, cut)
	return r, nil
}

// X7 validates the community layer the way the paper's clustering-analysis
// framing implies: plant campaigns far larger than a triangle (20–200
// accounts, redditgen.LargeCampaign), cluster the pruned CI graph with
// Leiden, and score the recovered partition against ground truth with the
// partition-similarity metrics. The benign book-club cohort rides along as
// the confuser that must stay below the coordination-score threshold.
func (l *Lab) X7() (*Report, error) {
	r := &Report{
		ID:    "x7",
		Title: "Community recovery vs planted large campaigns (extension)",
		Paper: "the paper stops at triangles; Weber & Neumann find coordinating communities by clustering the inferred interaction graph (Leiden, with Label Propagation as the cheap fallback)",
	}
	d := l.Dataset("largecampaign")
	b := l.BTM("largecampaign")
	res, err := pipeline.Run(b, pipeline.Config{
		Window:            projection.Window{Min: 0, Max: 60},
		MinTriangleWeight: 25,
		Exclude:           d.Helpers,
		Communities:       true,
	})
	if err != nil {
		return nil, err
	}

	// Partition similarity over the planted members: truth labels one
	// campaign each; recovered labels are partition community IDs, with
	// fresh singleton labels for members the pruned graph dropped.
	campaigns := make([]string, 0, len(d.Truth))
	for name := range d.Truth {
		campaigns = append(campaigns, name)
	}
	sort.Strings(campaigns)
	var truthL, gotL []int
	missing := 0
	fresh := len(res.Partition.Communities)
	for ci, name := range campaigns {
		for _, m := range d.Truth[name] {
			truthL = append(truthL, ci)
			if c, ok := res.Partition.Comm[m]; ok {
				gotL = append(gotL, c)
			} else {
				gotL = append(gotL, fresh)
				fresh++
				missing++
			}
		}
	}
	r.addf("planted members: %d across %d campaigns (%d missing from the pruned graph)",
		len(truthL), len(campaigns), missing)
	r.addf("partition similarity: NMI = %.3f, ARI = %.3f",
		stats.NMI(truthL, gotL), stats.ARI(truthL, gotL))
	r.addf("weighted modularity of the recovered partition: %.3f",
		graph.WeightedModularity(res.Thresholded, res.Partition.Comm))

	// Per-campaign recovery plus the community coordination score.
	byID := make(map[int]int, len(res.Communities))
	for i, cs := range res.Communities {
		byID[cs.ID] = i
	}
	for _, name := range campaigns {
		members := d.Truth[name]
		counts := make(map[int]int)
		for _, m := range members {
			if c, ok := res.Partition.Comm[m]; ok {
				counts[c]++
			}
		}
		best, bestN := -1, 0
		for c, n := range counts {
			if n > bestN || (n == bestN && c < best) {
				best, bestN = c, n
			}
		}
		if best < 0 {
			r.addf("%-12s NOT RECOVERED (no member survived pruning)", name)
			continue
		}
		cscore := 0.0
		if i, ok := byID[best]; ok {
			cscore = res.Communities[i].C
		}
		r.addf("%-12s %3d members -> community %d holds %d (size %d), C = %.3f",
			name, len(members), best, bestN, len(res.Partition.Communities[best]), cscore)
	}

	// The confuser: no community containing a cohort member may score
	// anywhere near the campaigns.
	cohort := d.Benign["bookclub"]
	maxC, inGraph := 0.0, 0
	for _, m := range cohort {
		c, ok := res.Partition.Comm[m]
		if !ok {
			continue
		}
		inGraph++
		if i, ok := byID[c]; ok && res.Communities[i].C > maxC {
			maxC = res.Communities[i].C
		}
	}
	r.addf("benign cohort: %d/%d members in the pruned graph; max community C = %.3f (threshold 0.5)",
		inGraph, len(cohort), maxC)
	return r, nil
}
