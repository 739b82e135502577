package ygmnet

import (
	"encoding/binary"
	"sort"
	"sync"

	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
)

// Distributed Step 3 over the TCP transport with genuinely partitioned
// data: each author's distinct-page list lives only on its owner rank
// (populated by (author, page) messages during a build phase), and a
// triplet evaluation gathers the three lists via fetch/reply messages to
// the requester, which intersects them — "dividing up authors to be
// checked among several compute nodes" (§2.4), with the storage actually
// divided.

// HypergraphCluster is a cluster holding a partitioned author→pages index.
type HypergraphCluster struct {
	Cluster *Cluster
	insertH uint16
	fetchH  uint16
	replyH  uint16

	shards []hyperShard  // per rank: owned author lists
	evals  []evalState   // per rank: in-flight evaluations
	outs   []hyperOutBag // per rank: finished scores
}

type hyperShard struct {
	mu    sync.Mutex
	pages map[graph.VertexID][]graph.VertexID // author → pages (sorted+deduped at barrier)
}

type evalState struct {
	mu      sync.Mutex
	pending map[uint32]*pendingEval
	next    uint32
}

type pendingEval struct {
	triplet hypergraph.Triplet
	lists   [3][]graph.VertexID
	got     int
}

type hyperOutBag struct {
	mu    sync.Mutex
	items []hypergraph.Score
}

// wire encodings:
//
//	insert: [4B author][4B page]
//	fetch:  [4B requester rank][4B eval id][1B slot][4B author]
//	reply:  [4B eval id][1B slot][4B count][4B page ...]

// NewHypergraphCluster starts an n-rank loopback cluster with the three
// handlers registered.
func NewHypergraphCluster(n int) (*HypergraphCluster, error) {
	hc := &HypergraphCluster{
		shards: make([]hyperShard, n),
		evals:  make([]evalState, n),
		outs:   make([]hyperOutBag, n),
	}
	for i := range hc.shards {
		hc.shards[i].pages = make(map[graph.VertexID][]graph.VertexID)
		hc.evals[i].pending = make(map[uint32]*pendingEval)
	}
	cluster, err := StartLocal(n, func(node *Node) {
		r := node.Rank()
		insert := node.Register(func(nd *Node, payload []byte) {
			author := graph.VertexID(binary.BigEndian.Uint32(payload))
			page := graph.VertexID(binary.BigEndian.Uint32(payload[4:]))
			s := &hc.shards[nd.Rank()]
			s.mu.Lock()
			s.pages[author] = append(s.pages[author], page)
			s.mu.Unlock()
		})
		fetch := node.Register(func(nd *Node, payload []byte) {
			requester := int(binary.BigEndian.Uint32(payload))
			evalID := binary.BigEndian.Uint32(payload[4:])
			slot := payload[8]
			author := graph.VertexID(binary.BigEndian.Uint32(payload[9:]))
			s := &hc.shards[nd.Rank()]
			s.mu.Lock()
			pages := s.pages[author]
			reply := make([]byte, 4+1+4+4*len(pages))
			binary.BigEndian.PutUint32(reply, evalID)
			reply[4] = slot
			binary.BigEndian.PutUint32(reply[5:], uint32(len(pages)))
			for i, p := range pages {
				binary.BigEndian.PutUint32(reply[9+4*i:], uint32(p))
			}
			s.mu.Unlock()
			nd.Async(requester, hc.replyH, reply)
		})
		reply := node.Register(func(nd *Node, payload []byte) {
			evalID := binary.BigEndian.Uint32(payload)
			slot := payload[4]
			count := binary.BigEndian.Uint32(payload[5:])
			pages := make([]graph.VertexID, count)
			for i := range pages {
				pages[i] = graph.VertexID(binary.BigEndian.Uint32(payload[9+4*i:]))
			}
			es := &hc.evals[nd.Rank()]
			es.mu.Lock()
			pe := es.pending[evalID]
			pe.lists[slot] = pages
			pe.got++
			done := pe.got == 3
			if done {
				delete(es.pending, evalID)
			}
			es.mu.Unlock()
			if !done {
				return
			}
			score := scoreFromLists(pe.triplet, pe.lists)
			ob := &hc.outs[nd.Rank()]
			ob.mu.Lock()
			ob.items = append(ob.items, score)
			ob.mu.Unlock()
		})
		if r == 0 {
			hc.insertH, hc.fetchH, hc.replyH = insert, fetch, reply
		}
	})
	if err != nil {
		return nil, err
	}
	hc.Cluster = cluster
	return hc, nil
}

// scoreFromLists computes the Step-3 record from the three sorted page
// lists (w = 3-way intersection size, C = 3w / Σ|pages|).
func scoreFromLists(t hypergraph.Triplet, lists [3][]graph.VertexID) hypergraph.Score {
	w := intersect3(lists[0], lists[1], lists[2])
	px, py, pz := len(lists[0]), len(lists[1]), len(lists[2])
	den := float64(px + py + pz)
	c := 0.0
	if den > 0 {
		c = 3 * float64(w) / den
	}
	return hypergraph.Score{Triplet: t, W: w, C: c, PX: px, PY: py, PZ: pz}
}

func intersect3(a, b, c []graph.VertexID) int {
	i, j, k, n := 0, 0, 0, 0
	for i < len(a) && j < len(b) && k < len(c) {
		x, y, z := a[i], b[j], c[k]
		if x == y && y == z {
			n++
			i++
			j++
			k++
			continue
		}
		m := x
		if y < m {
			m = y
		}
		if z < m {
			m = z
		}
		if x == m {
			i++
		}
		if y == m {
			j++
		}
		if z == m {
			k++
		}
	}
	return n
}

// Close shuts the cluster down.
func (hc *HypergraphCluster) Close() { hc.Cluster.Close() }

func (hc *HypergraphCluster) owner(a graph.VertexID) int {
	return int(mix64(uint64(a)) % uint64(len(hc.Cluster.Nodes)))
}

// Build distributes the BTM's author→pages index across the cluster:
// ranks scan disjoint page ranges and send (author, page) messages to each
// author's owner; at the barrier every owned list is sorted and deduped.
// Call once per dataset (Reset clears it).
func (hc *HypergraphCluster) Build(b *graph.BTM) {
	hc.Cluster.Run(func(node *Node) {
		var buf [8]byte
		// sent[a] is 1 + the last page a was sent with, so a page's authors
		// are deduped with nothing emptied between pages.
		sent := make([]uint32, b.NumAuthors())
		for p := node.Rank(); p < b.NumPages(); p += node.NRanks() {
			for _, at := range b.PageNeighborhood(graph.VertexID(p)) {
				if sent[at.Author] == uint32(p)+1 {
					continue
				}
				sent[at.Author] = uint32(p) + 1
				binary.BigEndian.PutUint32(buf[:4], uint32(at.Author))
				binary.BigEndian.PutUint32(buf[4:], uint32(p))
				node.Async(hc.owner(at.Author), hc.insertH, buf[:])
			}
		}
		node.Barrier()
		// Sort + dedupe owned lists.
		s := &hc.shards[node.Rank()]
		s.mu.Lock()
		for a, ps := range s.pages {
			sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
			w := 0
			for i, p := range ps {
				if i == 0 || p != ps[w-1] {
					ps[w] = p
					w++
				}
			}
			s.pages[a] = ps[:w]
		}
		s.mu.Unlock()
		node.Barrier()
	})
}

// EvaluateAll computes Step-3 records for the triplets against the built
// index, dealing triplets round-robin; each evaluation gathers its three
// author lists by messaging their owners. Results are sorted by triplet.
func (hc *HypergraphCluster) EvaluateAll(triplets []hypergraph.Triplet) []hypergraph.Score {
	hc.Cluster.Run(func(node *Node) {
		r := node.Rank()
		var buf [13]byte
		for i := r; i < len(triplets); i += node.NRanks() {
			t := triplets[i]
			es := &hc.evals[r]
			es.mu.Lock()
			id := es.next
			es.next++
			es.pending[id] = &pendingEval{triplet: t}
			es.mu.Unlock()
			for slot, a := range [3]graph.VertexID{t.X, t.Y, t.Z} {
				binary.BigEndian.PutUint32(buf[:4], uint32(r))
				binary.BigEndian.PutUint32(buf[4:], id)
				buf[8] = byte(slot)
				binary.BigEndian.PutUint32(buf[9:], uint32(a))
				node.Async(hc.owner(a), hc.fetchH, buf[:])
			}
		}
		node.Barrier()
	})
	var out []hypergraph.Score
	for i := range hc.outs {
		ob := &hc.outs[i]
		ob.mu.Lock()
		out = append(out, ob.items...)
		ob.items = nil
		ob.mu.Unlock()
	}
	hypergraph.SortScores(out)
	return out
}
