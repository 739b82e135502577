package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// tableEqualsModel asserts t holds exactly the model's entries (weights
// and, when tracked, per-signal shares) and nothing else.
func tableEqualsModel(t *testing.T, et *edgeTable, model map[uint64]uint32, sigModel []map[uint64]uint32) {
	t.Helper()
	if et.size() != len(model) {
		t.Fatalf("size %d != model size %d", et.size(), len(model))
	}
	seen := 0
	et.forEach(func(key uint64, w uint32) bool {
		seen++
		if model[key] != w {
			t.Fatalf("key %#x: table weight %d != model %d", key, w, model[key])
		}
		return true
	})
	if seen != len(model) {
		t.Fatalf("ForEach visited %d entries, model has %d", seen, len(model))
	}
	for key, w := range model {
		if got := et.get(key); got != w {
			t.Fatalf("get(%#x) = %d, model %d", key, got, w)
		}
		if !et.has(key) {
			t.Fatalf("has(%#x) false for live key", key)
		}
	}
	if sigModel != nil {
		out := make([]uint64, len(sigModel))
		for key := range model {
			clear(out)
			et.addSignalShares(key, out)
			for si := range out {
				if want := sigModel[si][key]; out[si] != uint64(want) {
					t.Fatalf("key %#x signal %d: share %d != model %d", key, si, out[si], want)
				}
			}
		}
	}
}

// TestEdgeTableRandomOps drives add/addSig/sub/delete-at-zero against map
// reference models across growth and churn, untracked and tracked.
func TestEdgeTableRandomOps(t *testing.T) {
	for _, nsig := range []int{0, 3} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			et := newEdgeTable(0, nsig)
			model := make(map[uint64]uint32)
			var sigModel []map[uint64]uint32
			if nsig >= 2 {
				sigModel = make([]map[uint64]uint32, nsig)
				for si := range sigModel {
					sigModel[si] = make(map[uint64]uint32)
				}
			}
			keys := make([]uint64, 0, 512)
			for op := 0; op < 6000; op++ {
				switch rng.Intn(3) {
				case 0, 1: // add (biased: the table must grow)
					u := VertexID(rng.Intn(200))
					v := VertexID(rng.Intn(200))
					if u == v {
						continue
					}
					key := PackEdge(u, v)
					w := uint32(rng.Intn(5)) + 1
					si := -1
					if nsig >= 2 {
						si = rng.Intn(nsig)
					}
					if si >= 0 {
						et.addSig(key, w, si)
						sigModel[si][key] += w
					} else {
						et.add(key, w)
					}
					if model[key] == 0 {
						keys = append(keys, key)
					}
					model[key] += w
				case 2: // sub, sometimes to zero
					if len(keys) == 0 {
						continue
					}
					ki := rng.Intn(len(keys))
					key := keys[ki]
					cur := model[key]
					if cur == 0 {
						continue
					}
					w := uint32(rng.Intn(int(cur))) + 1
					var dec []uint32
					if nsig >= 2 {
						// Withdraw proportionally from whatever shares cover w.
						dec = make([]uint32, nsig)
						rem := w
						for si := 0; si < nsig && rem > 0; si++ {
							take := sigModel[si][key]
							if take > rem {
								take = rem
							}
							dec[si] = take
							sigModel[si][key] -= take
							rem -= take
						}
						if rem > 0 {
							t.Fatalf("shares don't cover total for key %#x", key)
						}
					}
					old, new := et.sub(key, w, dec)
					if old != cur || new != cur-w {
						t.Fatalf("sub(%#x, %d) = (%d, %d), want (%d, %d)", key, w, old, new, cur, cur-w)
					}
					if new == 0 {
						delete(model, key)
						keys[ki] = keys[len(keys)-1]
						keys = keys[:len(keys)-1]
						if nsig >= 2 {
							for si := range sigModel {
								delete(sigModel[si], key)
							}
						}
					} else {
						model[key] = new
					}
				}
			}
			tableEqualsModel(t, et, model, sigModel)

			// clone is deep: mutating the clone leaves the original intact.
			cl := et.clone()
			tableEqualsModel(t, cl, model, sigModel)
			cl.add(PackEdge(900, 901), 7)
			if et.has(PackEdge(900, 901)) {
				t.Fatal("clone shares storage with the original")
			}
		}
	}
}

// TestEdgeTableBatchMatchesScalar: subBatch with stride-nsig attribution
// equals the scalar sub.
func TestEdgeTableBatchMatchesScalar(t *testing.T) {
	const nsig = 3
	rng := rand.New(rand.NewSource(42))
	batch := newEdgeTable(0, nsig)
	scalar := newEdgeTable(0, nsig)

	var deltas []EdgeDelta
	var sig []uint32
	seen := make(map[uint64]bool)
	for len(deltas) < 300 {
		u := VertexID(rng.Intn(100))
		v := VertexID(rng.Intn(100))
		if u == v || seen[PackEdge(u, v)] {
			continue
		}
		key := PackEdge(u, v)
		seen[key] = true
		shares := [nsig]uint32{uint32(rng.Intn(4)), uint32(rng.Intn(4)), uint32(rng.Intn(4)) + 1}
		deltas = append(deltas, EdgeDelta{Key: key, W: shares[0] + shares[1] + shares[2]})
		sig = append(sig, shares[:]...)
	}
	for k, d := range deltas {
		for si := 0; si < nsig; si++ {
			if s := sig[k*nsig+si]; s > 0 {
				batch.addSig(d.Key, s, si)
				scalar.addSig(d.Key, s, si)
			}
		}
	}
	bs := make([]uint64, nsig)
	ss := make([]uint64, nsig)

	// Withdraw half of each entry, then the rest — equal to the scalar sub
	// after each pass, and empty at the end.
	for pass := 0; pass < 2; pass++ {
		var sub []EdgeDelta
		var subSig []uint32
		for k, d := range deltas {
			shares := sig[k*nsig : (k+1)*nsig]
			var dec [nsig]uint32
			var tot uint32
			for si, s := range shares {
				take := s / 2
				if pass == 1 {
					take = s - s/2
				}
				dec[si] = take
				tot += take
			}
			if tot == 0 {
				continue
			}
			sub = append(sub, EdgeDelta{Key: d.Key, W: tot})
			subSig = append(subSig, dec[:]...)
			scalar.sub(d.Key, tot, dec[:])
		}
		batch.subBatch(sub, subSig)
		if batch.size() != scalar.size() {
			t.Fatalf("pass %d: subBatch size %d != scalar %d", pass, batch.size(), scalar.size())
		}
		scalar.forEach(func(key uint64, w uint32) bool {
			clear(bs)
			clear(ss)
			batch.addSignalShares(key, bs)
			scalar.addSignalShares(key, ss)
			if bw := batch.get(key); bw != w || !slices.Equal(bs, ss) {
				t.Fatalf("pass %d key %#x: subBatch %d %v != scalar %d %v", pass, key, bw, bs, w, ss)
			}
			return true
		})
	}
	if batch.size() != 0 {
		t.Fatalf("table not empty after full withdrawal: %d entries", batch.size())
	}
}

// TestEdgeTableUnderflowPanics mirrors the map-backed store's contract.
func TestEdgeTableUnderflowPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	et := newEdgeTable(0, 2)
	key := PackEdge(1, 2)
	et.addSig(key, 3, 0)
	mustPanic("total underflow", func() { et.sub(key, 4, nil) })
	mustPanic("share underflow", func() { et.sub(key, 1, []uint32{0, 1}) })
	mustPanic("absent key", func() { et.sub(PackEdge(8, 9), 1, nil) })
	mustPanic("key zero", func() { et.add(0, 1) })
}

// FuzzEdgeTable: differential fuzz of the open-addressed table against a
// map[uint64]uint32 reference model — add / sub-to-zero / delete /
// grow / iterate — so probing, backshift deletion, and growth can never
// silently diverge from map semantics.
func FuzzEdgeTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 9})
	f.Add([]byte{0, 1, 2, 9, 1, 1, 2, 9})
	// Enough adds to force growth, then churn.
	long := make([]byte, 0, 4*64)
	for i := byte(0); i < 32; i++ {
		long = append(long, 0, i, i+1, 3)
	}
	for i := byte(0); i < 16; i++ {
		long = append(long, 1, i, i+1, 1)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		et := newEdgeTable(0, 0)
		model := make(map[uint64]uint32)
		for len(data) >= 4 {
			op, ub, vb, wb := data[0], data[1], data[2], data[3]
			data = data[4:]
			u, v := VertexID(ub%32), VertexID(vb%32)
			if u == v {
				continue
			}
			key := PackEdge(u, v)
			switch op % 3 {
			case 0: // add
				w := uint32(wb%8) + 1
				et.add(key, w)
				model[key] += w
			case 1: // sub (partial, kept in contract by the model)
				cur := model[key]
				if cur == 0 {
					continue
				}
				w := uint32(wb)%cur + 1
				old, new := et.sub(key, w, nil)
				if old != cur || new != cur-w {
					t.Fatalf("sub(%#x, %d) = (%d, %d), model had %d", key, w, old, new, cur)
				}
				if new == 0 {
					delete(model, key)
				} else {
					model[key] = new
				}
			case 2: // delete (sub the full weight)
				cur := model[key]
				if cur == 0 {
					continue
				}
				et.sub(key, cur, nil)
				delete(model, key)
			}
		}
		// Iterate + probe: table ≡ model.
		if et.size() != len(model) {
			t.Fatalf("size %d != model %d", et.size(), len(model))
		}
		n := 0
		et.forEach(func(key uint64, w uint32) bool {
			n++
			if model[key] != w {
				t.Fatalf("key %#x: %d != model %d", key, w, model[key])
			}
			return true
		})
		if n != len(model) {
			t.Fatalf("ForEach visited %d, model %d", n, len(model))
		}
		for key, w := range model {
			if et.get(key) != w {
				t.Fatalf("get(%#x) = %d, model %d", key, et.get(key), w)
			}
		}
		// Absent probes after churn (backshift must terminate chains).
		for i := VertexID(40); i < 48; i++ {
			if et.has(PackEdge(i, i+1)) {
				t.Fatalf("phantom key {%d,%d}", i, i+1)
			}
		}
	})
}
