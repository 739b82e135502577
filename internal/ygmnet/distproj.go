package ygmnet

import (
	"coordbot/internal/graph"
	"coordbot/internal/projection"
)

// Distributed projection over the TCP transport: pages are dealt
// round-robin to ranks, each rank computes its pages' in-window pair sets
// locally, and edge weights / per-author page counts are reduced onto
// their owner ranks as serialized messages. The assembled result is
// exactly ProjectSequential's (integration-tested).
//
// This is the shape of the paper's multi-node YGM deployment: the BTM here
// is shared because the cluster is in-process; in a true multi-process run
// each rank would ingest its own page partition of the archive (see
// pushshift.ReadFunc) and the communication pattern is unchanged.

// ProjectionCluster is a cluster prepared for distributed projections:
// every rank carries an edge-weight reduce map and a page-count counter.
type ProjectionCluster struct {
	Cluster *Cluster
	edges   []*ReduceMapU32
	counts  []*Counter
}

// NewProjectionCluster starts an n-rank loopback cluster with projection
// containers registered on every rank.
func NewProjectionCluster(n int) (*ProjectionCluster, error) {
	pc := &ProjectionCluster{
		edges:  make([]*ReduceMapU32, n),
		counts: make([]*Counter, n),
	}
	cluster, err := StartLocal(n, func(node *Node) {
		pc.edges[node.Rank()] = NewReduceMapU32(node)
		pc.counts[node.Rank()] = NewCounter(node)
	})
	if err != nil {
		return nil, err
	}
	pc.Cluster = cluster
	return pc, nil
}

// Close shuts the cluster down.
func (pc *ProjectionCluster) Close() { pc.Cluster.Close() }

// Project runs one distributed projection. The containers are drained
// into the result, so the cluster can run further projections afterwards.
func (pc *ProjectionCluster) Project(b *graph.BTM, w projection.Window, opts projection.Options) (*graph.CIGraph, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	pc.Cluster.Run(func(node *Node) {
		edges := pc.edges[node.Rank()]
		counts := pc.counts[node.Rank()]
		var st projection.PairStep
		for p := node.Rank(); p < b.NumPages(); p += node.NRanks() {
			pairs, authors := st.Object(b.PageNeighborhood(graph.VertexID(p)), opts, w)
			for _, key := range pairs {
				edges.AsyncAdd(key, 1)
			}
			for _, a := range authors {
				counts.AsyncAdd(uint64(a), 1)
			}
		}
		node.Barrier()
	})

	g := graph.NewCIGraph()
	for r := range pc.edges {
		for key, wgt := range pc.edges[r].LocalShard() {
			u, v := graph.UnpackEdge(key)
			g.AddEdgeWeight(u, v, wgt)
		}
		for k, c := range pc.counts[r].LocalShard() {
			g.AddPageCount(graph.VertexID(k), uint32(c))
		}
		// Drain for reuse.
		pc.edges[r].mu.Lock()
		pc.edges[r].local = make(map[uint64]uint32)
		pc.edges[r].mu.Unlock()
		pc.counts[r].mu.Lock()
		pc.counts[r].local = make(map[uint64]int64)
		pc.counts[r].mu.Unlock()
	}
	return g, nil
}
