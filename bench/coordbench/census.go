package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"

	"coordbot/internal/detectd"
	"coordbot/internal/graph"
	"coordbot/internal/pipeline"
	"coordbot/internal/projection"
)

// tri is one flagged triangle in canonical author IDs (X < Y < Z) with
// every score the daemon publishes for it.
type tri struct {
	X, Y, Z uint32
	MinW    uint32
	T       float64
	W       int     // w_xyz
	C       float64 // equation 4
}

// census is a run's detection output: the triangle census and, where the
// workload clusters, the scored communities' member sets. Every pass —
// the daemon over HTTP, the two in-process replays, the oracle — reduces
// to one of these, and they must all be equal.
type census struct {
	tris  []tri      // sorted by (X, Y, Z)
	comms [][]uint32 // each sorted, the list sorted lexicographically
}

func (c *census) normalise() {
	sort.Slice(c.tris, func(i, j int) bool {
		a, b := c.tris[i], c.tris[j]
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.Z < b.Z
	})
	for _, m := range c.comms {
		slices.Sort(m)
	}
	sort.Slice(c.comms, func(i, j int) bool { return slices.Compare(c.comms[i], c.comms[j]) < 0 })
}

// digest hashes the census bit for bit (floats by their IEEE encoding).
func (c *census) digest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(c.tris)))
	for _, t := range c.tris {
		put(uint64(t.X)<<32 | uint64(t.Y))
		put(uint64(t.Z)<<32 | uint64(t.MinW))
		put(math.Float64bits(t.T))
		put(uint64(t.W))
		put(math.Float64bits(t.C))
	}
	put(uint64(len(c.comms)))
	for _, m := range c.comms {
		put(uint64(len(m)))
		for _, v := range m {
			put(uint64(v))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// diff describes the first difference between two censuses, or returns
// nil when they are identical. skipT leaves the T score out: it needs
// every author's page count, which a restricted oracle does not have.
func (c *census) diff(want *census, skipT bool) error {
	if len(c.tris) != len(want.tris) {
		return fmt.Errorf("%d triangles, oracle has %d", len(c.tris), len(want.tris))
	}
	for i, g := range c.tris {
		w := want.tris[i]
		if skipT {
			g.T, w.T = 0, 0
		}
		if g != w {
			return fmt.Errorf("triangle %d: got %+v, oracle has %+v", i, c.tris[i], want.tris[i])
		}
	}
	if len(c.comms) != len(want.comms) {
		return fmt.Errorf("%d communities, oracle has %d", len(c.comms), len(want.comms))
	}
	for i := range c.comms {
		if !slices.Equal(c.comms[i], want.comms[i]) {
			return fmt.Errorf("community %d: got %v, oracle has %v", i, c.comms[i], want.comms[i])
		}
	}
	return nil
}

func (c *census) flagged() map[graph.VertexID]bool {
	out := make(map[graph.VertexID]bool)
	for _, t := range c.tris {
		out[t.X], out[t.Y], out[t.Z] = true, true, true
	}
	return out
}

// censusOf reduces an in-process pipeline result whose vertex IDs are
// already canonical.
func censusOf(res *pipeline.Result) *census {
	c := &census{}
	for _, t := range res.Triangles {
		c.tris = append(c.tris, tri{X: t.X, Y: t.Y, Z: t.Z, MinW: t.MinWeight(), T: t.T, W: t.Hyper.W, C: t.Hyper.C})
	}
	for _, cs := range res.Communities {
		c.comms = append(c.comms, slices.Clone(cs.Members))
	}
	c.normalise()
	return c
}

// fetchCensus reads the daemon's whole published census back over HTTP
// and maps author names to canonical IDs.
func fetchCensus(ctx context.Context, conn *http.Client, s *sut, p *plan) (*census, error) {
	ids := make(map[string]uint32, len(p.corpus.authors))
	for id, name := range p.corpus.authors {
		ids[name] = uint32(id)
	}
	lookup := func(name string) (uint32, error) {
		id, ok := ids[name]
		if !ok {
			return 0, fmt.Errorf("daemon reported an author the corpus never sent: %q", name)
		}
		return id, nil
	}
	var tr detectd.TrianglesOut
	if status, err := get(ctx, conn, s.base+"/v1/triangles", &tr); err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("final /v1/triangles: status %d, %v", status, err)
	}
	c := &census{}
	for _, t := range tr.Triangles {
		var v [3]uint32
		for i, name := range t.Authors {
			id, err := lookup(name)
			if err != nil {
				return nil, err
			}
			v[i] = id
		}
		slices.Sort(v[:])
		e := tri{X: v[0], Y: v[1], Z: v[2], MinW: t.MinWeight, T: t.T}
		if t.WXYZ != nil && t.C != nil {
			e.W, e.C = *t.WXYZ, *t.C
		}
		c.tris = append(c.tris, e)
	}
	if p.sut.communities {
		var co detectd.CommunitiesOut
		if status, err := get(ctx, conn, s.base+"/v1/communities", &co); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("final /v1/communities: status %d, %v", status, err)
		}
		for _, cm := range co.Communities {
			members := make([]uint32, len(cm.Members))
			for i, name := range cm.Members {
				id, err := lookup(name)
				if err != nil {
					return nil, err
				}
				members[i] = id
			}
			c.comms = append(c.comms, members)
		}
	}
	c.normalise()
	return c, nil
}

// excludedIDs is the excluded helpers in canonical IDs.
func excludedIDs() map[graph.VertexID]bool {
	out := make(map[graph.VertexID]bool, len(excluded))
	for i := range excluded {
		out[graph.VertexID(i)] = true
	}
	return out
}

// oracle runs the batch pipeline, single-threaded reference
// implementations throughout, over exactly the comments the daemon's
// window still holds once the stream is applied: same window, cut and
// exclusions. It returns the expected census, the edge count of the
// surviving window's projection, and the planted bots active in it.
func oracle(p *plan) (want *census, liveEdges int, truth map[graph.VertexID]bool, err error) {
	surv := p.corpus.survivors(p.sut.horizon)
	cfg := pipeline.Config{
		Window:            window,
		MinTriangleWeight: p.sut.cut,
		Exclude:           excludedIDs(),
		Sequential:        true,
		Communities:       p.sut.communities,
		Community:         communityConfig,
	}
	btm := graph.BuildBTM(surv, 0, 0)
	var res *pipeline.Result
	if p.sut.signals == "" {
		res, err = pipeline.Run(btm, cfg)
	} else {
		sigs, serr := p.sut.parseSignals()
		if serr != nil {
			return nil, 0, nil, serr
		}
		ci, perr := projection.ProjectSignals(surv, sigs, projection.Options{Exclude: cfg.Exclude})
		if perr != nil {
			return nil, 0, nil, perr
		}
		res, err = pipeline.RunOnCI(ci, btm, cfg)
	}
	if err != nil {
		return nil, 0, nil, err
	}
	return censusOf(res), res.CI.NumEdges(), p.corpus.activeTruth(surv), nil
}

// recall is pipeline.Evaluate's recall of the census's flagged authors.
func recall(c *census, truth map[graph.VertexID]bool) float64 {
	return pipeline.Evaluate(c.flagged(), truth).Recall
}
