// Per-signal weight attribution for the multi-signal CI graph.
//
// The pluggable-signal projection (internal/projection.Signal) merges
// several coordination signals — co-commenting, URL co-sharing, hashtag
// overlap, reply targeting, time-bucket synchrony — into the one weighted
// CI graph every downstream consumer (tripoll, hypergraph, community)
// already understands through CIView. The merged totals ARE the graph:
// thresholds, triangle surveys, and delta diffs all act on them, so the
// incremental machinery is oblivious to how many signals fed an edge.
//
// What this file adds is the breakdown behind that view: a store created
// with a signal count >= 2 keeps each signal's share of each edge's total
// weight in the edge table's inline stride-numSignals share lanes, so
// attributing an increment or reading a breakdown costs the same single
// probe as the total itself. Writes are bulk only: increments arrive
// through AddShardBatch, a batch per (shard, signal), and withdrawals
// through SubShardBatch with a share stride beside the totals; an
// untracked store moves only the totals, so a single-signal ingest pays
// nothing for the breakdown. The breakdown is attribution metadata — it
// rides the same copy-on-write discipline as the edge tables (frozen by
// Snapshot, cloned by own), is withdrawn in the same eviction waves, and
// is never consulted by Equal, Threshold, or the snapshot diffs.
// Single-signal stores allocate nothing and behave bit-identically to the
// pre-signal code. The map-backed reference graph keeps totals only: a
// signal's reference share is that signal projected alone.
package graph

// --- snapshots ----------------------------------------------------------

// SignalMix sums the per-signal breakdown over every unordered pair of
// members — the signal mix of a flagged group: which coordination signals
// its internal weight came from, one entry per signal. Returns nil when
// the snapshot carries no breakdown (a single-signal store, or a
// threshold product). O(|members|²) lookups; callers cap group size.
func (s *CISnapshot) SignalMix(members []VertexID) []uint64 {
	if s.numSignals == 0 {
		return nil
	}
	out := make([]uint64, s.numSignals)
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if members[i] == members[j] {
				continue
			}
			key := PackEdge(members[i], members[j])
			s.edges[mix64(key)&s.mask].addSignalShares(key, out)
		}
	}
	return out
}
