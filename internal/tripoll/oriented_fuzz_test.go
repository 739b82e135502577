package tripoll

import (
	"testing"

	"coordbot/internal/graph"
)

// FuzzOrientedPatch drives the persistent Oriented's gap-buffer CSR through
// arbitrary patch sequences — insertions, deletions, reweights, interleaved
// compactions — on a small vertex universe, checking after every step that
// the structure matches a from-scratch orientation of a mirror edge map:
// same edge set, same invariant structure, same survey. Three input bytes
// encode one step: two endpoint choices and a weight/op byte whose high bit
// requests a compaction before the patch and whose low bits pick the new
// weight (0 = delete).
func FuzzOrientedPatch(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add([]byte{0x01, 0x02, 0x03, 0x02, 0x03, 0x05, 0x01, 0x03, 0x84, 0x01, 0x02, 0x00})
	f.Add([]byte{
		0x00, 0x01, 0x02, 0x01, 0x02, 0x02, 0x00, 0x02, 0x02, // triangle
		0x00, 0x03, 0x81, 0x03, 0x04, 0x01, 0x00, 0x01, 0x00, // grow + delete
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nv = 8
		mirror := make(map[[2]graph.VertexID]uint32)
		o := Orient(graph.NewCIGraph().BuildAdjacency())
		o.rebuildFrac = 1e9 // exercise the patched CSR, not the rebuilder
		opts := Options{MinTriangleWeight: 1}
		for i := 0; i+2 < len(data); i += 3 {
			u := graph.VertexID(data[i]%nv) + 1
			v := graph.VertexID(data[i+1]%nv) + 1
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if data[i+2]&0x80 != 0 {
				o.out.compact()
				o.in.compact()
				if o.out.holes != 0 || o.in.holes != 0 {
					t.Fatalf("step %d: holes survive compact: out %d in %d", i, o.out.holes, o.in.holes)
				}
			}
			neww := uint32(data[i+2] & 0x07)
			key := [2]graph.VertexID{u, v}
			old := mirror[key]
			if old == neww {
				continue
			}
			o.ApplyPatches([]graph.EdgePatch{{U: u, V: v, Old: old, New: neww}})
			if neww == 0 {
				delete(mirror, key)
			} else {
				mirror[key] = neww
			}

			got := edgeSetOf(o)
			if len(got) != len(mirror) {
				t.Fatalf("step %d: oriented has %d edges, mirror %d", i, len(got), len(mirror))
			}
			for e, w := range mirror {
				if got[e] != w {
					t.Fatalf("step %d: edge %v oriented weight %d, mirror %d", i, e, got[e], w)
				}
			}
		}
		// Final deep check: rebuild a reference from the mirror and compare
		// the surveys.
		g := graph.NewCIGraph()
		for e, w := range mirror {
			g.AddEdgeWeight(e[0], e[1], w)
		}
		ref := Orient(g.BuildAdjacency())
		ps, rs := surveyAllSorted(o, opts), surveyAllSorted(ref, opts)
		if len(ps) != len(rs) {
			t.Fatalf("patched survey %d triangles, rebuilt %d", len(ps), len(rs))
		}
		for i := range rs {
			if ps[i] != rs[i] {
				t.Fatalf("triangle %d patched %+v, rebuilt %+v", i, ps[i], rs[i])
			}
		}
	})
}
