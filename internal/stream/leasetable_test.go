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
	model map[uint64]int64
}

func newLeaseModel() *leaseModel {
	return &leaseModel{model: make(map[uint64]int64)}
}

// set inserts key or overwrites its value (a lease refresh).
func (m *leaseModel) set(key uint64, val int64) {
	if i, ok := m.t.find(key); ok {
		m.t.slots[i].val = val
	} else {
		m.t.insert(i, key, val)
	}
	m.model[key] = val
}

func (m *leaseModel) del(key uint64) {
	if i, ok := m.t.find(key); ok {
		m.t.remove(i)
	}
	delete(m.model, key)
}

// check: table ≡ model by probe and by scan, and every entry sits in the
// unbroken probe chain from its home slot (what backshift must preserve).
func (m *leaseModel) check(t *testing.T) {
	t.Helper()
	if m.t.len() != len(m.model) {
		t.Fatalf("len %d, model %d", m.t.len(), len(m.model))
	}
	for k, want := range m.model {
		i, ok := m.t.find(k)
		if !ok || m.t.slots[i].val != want {
			t.Fatalf("%#x: found %v, want value %d", k, ok, want)
		}
	}
	mask := uint64(len(m.t.slots) - 1)
	n := 0
	for i, s := range m.t.slots {
		if s.key == 0 {
			continue
		}
		n++
		if want, ok := m.model[s.key]; !ok || want != s.val {
			t.Fatalf("slot %d holds %#x → %d, model has %d (%v)", i, s.key, s.val, want, ok)
		}
		for j := m.t.home(s.key); j != uint64(i); j = (j + 1) & mask {
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

// TestLeaseTableMatchesModel churns a table the way an object's window
// does — inserts, refreshes and deletes over a key space small enough to
// collide and large enough to grow — against the map model.
func TestLeaseTableMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := newLeaseModel()
	m.check(t) // the zero table: no slots, every probe a miss
	for step := 0; step < 40_000; step++ {
		key := graph.PackEdge(graph.VertexID(rng.Intn(30)), graph.VertexID(30+rng.Intn(30)))
		if rng.Intn(5) < 3 {
			m.set(key, rng.Int63n(1000)-500)
		} else {
			m.del(key)
		}
		if step%500 == 0 {
			m.check(t)
		}
	}
	m.check(t)
	if len(m.t.slots) <= leaseTableMinCap {
		t.Fatal("table never grew")
	}
	for k := range m.model {
		m.del(k)
	}
	m.check(t)
	m.t.recycle()
	if m.t.slots != nil {
		t.Fatalf("recycle kept %d slots, cap %d", len(m.t.slots), leaseTableKeepCap)
	}
	m.check(t)
}

func TestLeaseTableRejectsKeyZero(t *testing.T) {
	var lt leaseTable
	defer func() {
		if recover() == nil {
			t.Fatal("key 0 accepted")
		}
	}()
	i, _ := lt.find(0)
	lt.insert(i, 0, 1)
}

// FuzzLeaseTable is the differential fuzzer for the flat window state:
// insert / refresh / delete (with the growth and backshift they cause)
// against a map, the FuzzEdgeTable recipe, from the zero table. Three
// bytes an operation.
func FuzzLeaseTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 9, 0, 2, 7, 2, 2, 0})
	// Enough inserts to grow three times, then delete every other one.
	long := make([]byte, 0, 3*96)
	for i := byte(0); i < 64; i++ {
		long = append(long, 0, i, i)
	}
	for i := byte(0); i < 64; i += 2 {
		long = append(long, 2, i, 0)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newLeaseModel()
		for len(data) >= 3 {
			op, kb, vb := data[0], data[1], data[2]
			data = data[3:]
			key := uint64(kb) + 1
			if op%3 < 2 {
				m.set(key, int64(int8(vb)))
			} else {
				m.del(key)
			}
		}
		m.check(t)
	})
}
