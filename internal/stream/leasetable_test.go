package stream

import (
	"math/rand"
	"testing"

	"coordbot/internal/graph"
)

func (t *leaseTable) len() int { return t.n }

// leaseModel drives a leaseTable and a map side by side.
type leaseModel struct {
	t     leaseTable
	model map[[2]uint64]int64
}

func newLeaseModel() *leaseModel {
	return &leaseModel{t: newLeaseTable(), model: make(map[[2]uint64]int64)}
}

// set inserts (obj, key) or overwrites its value (a lease refresh).
func (m *leaseModel) set(obj graph.VertexID, key uint64, val int64) {
	if i, ok := m.t.find(obj, key); ok {
		m.t.slots[i].val = val
	} else {
		m.t.insert(i, obj, key, val)
	}
	m.model[[2]uint64{uint64(obj), key}] = val
}

func (m *leaseModel) del(obj graph.VertexID, key uint64) {
	if i, ok := m.t.find(obj, key); ok {
		m.t.remove(i)
	}
	delete(m.model, [2]uint64{uint64(obj), key})
}

// check: table ≡ model by probe and by scan, and every entry sits in the
// unbroken probe chain from its home slot (what backshift must preserve).
func (m *leaseModel) check(t *testing.T) {
	t.Helper()
	if m.t.len() != len(m.model) {
		t.Fatalf("len %d, model %d", m.t.len(), len(m.model))
	}
	for k, want := range m.model {
		i, ok := m.t.find(graph.VertexID(k[0]), k[1])
		if !ok || m.t.slots[i].val != want {
			t.Fatalf("(%d, %#x): found %v, want value %d", k[0], k[1], ok, want)
		}
	}
	n := 0
	for i, s := range m.t.slots {
		if s.key == 0 {
			continue
		}
		n++
		if want, ok := m.model[[2]uint64{uint64(s.obj), s.key}]; !ok || want != s.val {
			t.Fatalf("slot %d holds (%d, %#x) → %d, model has %d (%v)", i, s.obj, s.key, s.val, want, ok)
		}
		for j := m.t.home(s.obj, s.key); j != uint64(i); j = (j + 1) & m.t.mask {
			if m.t.slots[j].key == 0 {
				t.Fatalf("slot %d: hole at %d inside its probe chain", i, j)
			}
		}
	}
	if n != len(m.model) {
		t.Fatalf("scan found %d entries, model %d", n, len(m.model))
	}
	if cap := len(m.t.slots); cap&(cap-1) != 0 || n*leaseTableLoadDen > cap*leaseTableLoadNum {
		t.Fatalf("%d entries in %d slots", n, cap)
	}
}

// TestLeaseTableMatchesModel churns a table the way a window does —
// inserts, refreshes and deletes over a key space small enough to collide
// and large enough to grow — against the map model.
func TestLeaseTableMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := newLeaseModel()
	for step := 0; step < 40_000; step++ {
		obj := graph.VertexID(rng.Intn(40))
		key := graph.PackEdge(graph.VertexID(rng.Intn(30)), graph.VertexID(30+rng.Intn(30)))
		if rng.Intn(5) < 3 {
			m.set(obj, key, rng.Int63n(1000)-500)
		} else {
			m.del(obj, key)
		}
		if step%500 == 0 {
			m.check(t)
		}
	}
	m.check(t)
	if len(m.t.slots) == leaseTableMinCap {
		t.Fatal("table never grew")
	}
	for k := range m.model {
		m.del(graph.VertexID(k[0]), k[1])
	}
	m.check(t)
}

func TestLeaseTableRejectsKeyZero(t *testing.T) {
	lt := newLeaseTable()
	defer func() {
		if recover() == nil {
			t.Fatal("key 0 accepted")
		}
	}()
	i, _ := lt.find(3, 0)
	lt.insert(i, 3, 0, 1)
}

// FuzzLeaseTable is the differential fuzzer for the flat window state:
// insert / refresh / delete (with the growth and backshift they cause)
// against a map, the FuzzEdgeTable recipe. Four bytes an operation.
func FuzzLeaseTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 9, 0, 1, 2, 7, 2, 1, 2, 0})
	// Enough inserts to grow twice, then delete every other one.
	long := make([]byte, 0, 4*48)
	for i := byte(0); i < 32; i++ {
		long = append(long, 0, i%4, i, i)
	}
	for i := byte(0); i < 32; i += 2 {
		long = append(long, 2, i%4, i, 0)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newLeaseModel()
		for len(data) >= 4 {
			op, ob, kb, vb := data[0], data[1], data[2], data[3]
			data = data[4:]
			obj, key := graph.VertexID(ob%8), uint64(kb%32)+1
			if op%3 < 2 {
				m.set(obj, key, int64(int8(vb)))
			} else {
				m.del(obj, key)
			}
		}
		m.check(t)
	})
}
