package stream

import "coordbot/internal/graph"

// leaseTable is the flat store behind the sliding window's per-object
// bookkeeping: an open-addressed table from (object, key) to an int64,
// in graph.EdgeTable's shape — power-of-two capacity indexed by the top
// bits of a splitmix64 hash, linear probing, 13/16 load, backshift
// deletion (no tombstones, so churn never lengthens probe chains), key 0
// the empty-slot sentinel. One per signal holds the leases (key =
// packed pair, value = newest supporting timestamp) and one the incident
// counts (key = author+1, value = live pairs touching the author on the
// object), replacing two Go maps per object state: a new object allocates
// nothing, a lease lookup needs no object lookup first, and the whole
// window is two allocations that grow by doubling.
//
// Not synchronized: a table belongs to one projector.
type leaseTable struct {
	slots []leaseSlot
	mask  uint64
	shift uint // 64 - log2(len(slots))
	n     int
}

type leaseSlot struct {
	key uint64 // 0 marks an empty slot
	val int64
	obj graph.VertexID
}

const (
	leaseTableMinCap                     = 8
	leaseTableLoadNum, leaseTableLoadDen = 13, 16
)

func newLeaseTable() leaseTable {
	var t leaseTable
	t.alloc(leaseTableMinCap)
	return t
}

func (t *leaseTable) alloc(capacity int) {
	t.slots = make([]leaseSlot, capacity)
	t.mask = uint64(capacity - 1)
	t.shift = 64
	for c := capacity; c > 1; c >>= 1 {
		t.shift--
	}
}

// home is the slot (obj, key)'s probe chain starts at.
func (t *leaseTable) home(obj graph.VertexID, key uint64) uint64 {
	return mix64(key^(uint64(obj)+1)*0x9e3779b97f4a7c15) >> t.shift
}

// find probes for (obj, key): the slot holding it (true) or the empty slot
// ending its probe chain (false), where insert will place it.
func (t *leaseTable) find(obj graph.VertexID, key uint64) (uint64, bool) {
	i := t.home(obj, key)
	for {
		s := &t.slots[i]
		if s.key == key && s.obj == obj {
			return i, true
		}
		if s.key == 0 {
			return i, false
		}
		i = (i + 1) & t.mask
	}
}

// insert stores (obj, key) → val at i, the slot a failed find returned
// with no mutation in between, growing first when the load factor asks.
func (t *leaseTable) insert(i uint64, obj graph.VertexID, key uint64, val int64) {
	if key == 0 {
		panic("stream: leaseTable key 0 (empty-slot sentinel)")
	}
	if (t.n+1)*leaseTableLoadDen > len(t.slots)*leaseTableLoadNum {
		t.grow()
		i, _ = t.find(obj, key)
	}
	t.slots[i] = leaseSlot{key: key, val: val, obj: obj}
	t.n++
}

// remove empties slot i and backshifts the probe chain behind it: every
// displaced entry whose home lies at or before the hole moves back into
// it.
func (t *leaseTable) remove(i uint64) {
	j := i
	for {
		j = (j + 1) & t.mask
		s := t.slots[j]
		if s.key == 0 {
			break
		}
		if h := t.home(s.obj, s.key); (j-h)&t.mask >= (j-i)&t.mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = leaseSlot{}
	t.n--
}

func (t *leaseTable) grow() {
	old := t.slots
	t.alloc(len(old) * 2)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.obj, s.key)
		for t.slots[i].key != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
}

// mix64 is the splitmix64 finalizer, the same hash graph.EdgeTable indexes
// by.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
