package graph

import (
	"reflect"
	"testing"
)

// FuzzPackEdge: PackEdge/UnpackEdge round-trip for any distinct endpoint
// pair (canonicalized u < v), and the self-loop contract panics.
func FuzzPackEdge(f *testing.F) {
	f.Add(uint32(0), uint32(1))
	f.Add(uint32(1), uint32(0))
	f.Add(uint32(7), uint32(7))
	f.Add(uint32(0), uint32(0xffffffff))
	f.Add(uint32(0xfffffffe), uint32(0xffffffff))
	f.Fuzz(func(t *testing.T, a, b uint32) {
		if a == b {
			defer func() {
				if recover() == nil {
					t.Fatalf("PackEdge(%d,%d) did not panic on self-loop", a, b)
				}
			}()
			PackEdge(a, b)
			return
		}
		key := PackEdge(a, b)
		if key != PackEdge(b, a) {
			t.Fatalf("PackEdge not symmetric for (%d,%d)", a, b)
		}
		u, v := UnpackEdge(key)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if u != lo || v != hi {
			t.Fatalf("round trip (%d,%d) -> %#x -> (%d,%d)", a, b, key, u, v)
		}
	})
}

// FuzzBuildAdjacency drives the map-backed reference and the sharded store
// through the same arbitrary AddEdgeWeight/SubEdgeWeight/page-count
// sequence decoded from fuzz bytes, then asserts the two representations
// agree: graph equality, structurally identical CSR adjacencies from the
// serial and shard-parallel builders, and identical connected components.
func FuzzBuildAdjacency(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0, 1, 2, 3, 2, 1, 2, 3, 0, 4, 5, 1, 3, 4, 0, 2})
	f.Add([]byte{0, 0, 1, 9, 0, 0, 2, 9, 0, 1, 2, 9, 2, 0, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := NewCIGraph()
		g := NewShardedCI(8, 0)
		// Shadow state keeps Sub ops in contract (no underflow) while
		// still reaching the delete-at-zero path.
		weights := make(map[uint64]uint32)
		pages := make(map[VertexID]uint32)
		for len(data) >= 4 {
			op, ub, vb, wb := data[0], data[1], data[2], data[3]
			data = data[4:]
			u, v := VertexID(ub%16), VertexID(vb%16)
			if u == v {
				continue
			}
			switch op % 4 {
			case 0:
				w := uint32(wb%8) + 1
				ref.AddEdgeWeight(u, v, w)
				addEdge(g, u, v, w, 0)
				weights[PackEdge(u, v)] += w
			case 1:
				key := PackEdge(u, v)
				cur := weights[key]
				if cur == 0 {
					continue
				}
				w := uint32(wb)%cur + 1
				ref.SubEdgeWeight(u, v, w)
				subEdge(g, u, v, w)
				if w == cur {
					delete(weights, key)
				} else {
					weights[key] = cur - w
				}
			case 2:
				n := uint32(wb%4) + 1
				ref.AddPageCount(u, n)
				addPages(g, u, n)
				pages[u] += n
			case 3:
				cur := pages[u]
				if cur == 0 {
					continue
				}
				n := uint32(wb)%cur + 1
				ref.SubPageCount(u, n)
				subPages(g, u, n)
				if n == cur {
					delete(pages, u)
				} else {
					pages[u] = cur - n
				}
			}
		}
		snap := g.Snapshot()
		if !ref.Equal(snap) {
			t.Fatalf("sharded diverged from map after op sequence (%d vs %d edges, %d vs %d authors)",
				snap.NumEdges(), ref.NumEdges(), snap.NumAuthors(), ref.NumAuthors())
		}
		serial := ref.BuildAdjacency()
		parallel := snap.BuildAdjacency()
		if !adjacencyEqual(serial, parallel) {
			t.Fatal("shard-parallel adjacency differs from serial reference")
		}
		if rc, sc := ConnectedComponents(ref), ConnectedComponents(snap); !reflect.DeepEqual(rc, sc) {
			t.Fatalf("components differ: reference %v, snapshot %v", rc, sc)
		}
	})
}
