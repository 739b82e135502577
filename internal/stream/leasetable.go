package stream

// leaseTable is the flat store behind one object's sliding-window
// bookkeeping: an open-addressed table from a nonzero uint64 key to an
// int64, in the shape of graph's edge table — power-of-two capacity
// indexed by the top bits of a hash, linear probing, 13/16 load,
// backshift deletion (no tombstones, so churn never lengthens probe
// chains), key 0 the empty-slot sentinel. Every object state holds two:
// the leases (key = packed pair, value = newest supporting timestamp) and
// the incident counts (key = author+1, value = live pairs touching the
// author on the object). A slot is 16 bytes, and a pairing's probes all
// land in the one small table of the object it pairs on.
//
// The zero value is an empty table without slots: an object that never
// pairs allocates nothing, and the first insert allocates leaseTableMinCap
// slots. Not synchronized: a table belongs to one projector.
type leaseTable struct {
	slots []leaseSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

type leaseSlot struct {
	key uint64 // 0 marks an empty slot
	val int64
}

const (
	leaseTableMinCap                     = 8
	leaseTableLoadNum, leaseTableLoadDen = 13, 16
	// leaseTableKeepCap is the largest table a freed object state keeps
	// for the slot's next tenant; a larger one (a dead megathread's) is
	// dropped rather than pinned.
	leaseTableKeepCap = 64
)

func (t *leaseTable) alloc(capacity int) {
	t.slots = make([]leaseSlot, capacity)
	t.shift = 64
	for c := capacity; c > 1; c >>= 1 {
		t.shift--
	}
}

// home is the slot key's probe chain starts at: the top bits of a
// Fibonacci (multiplicative) hash, which spreads dense author IDs and
// packed pairs of them evenly, and whose one multiply puts the probe's
// load sooner behind the key than a full mixer would.
func (t *leaseTable) home(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> t.shift
}

// find probes for key: the slot holding it (true) or the empty slot ending
// its probe chain (false), where insert will place it.
func (t *leaseTable) find(key uint64) (uint64, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	i := t.home(key)
	for {
		s := &t.slots[i]
		if s.key == key {
			return i, true
		}
		if s.key == 0 {
			return i, false
		}
		i = (i + 1) & mask
	}
}

// insert stores key → val at i, the slot a failed find returned with no
// mutation in between, growing first when the load factor asks.
func (t *leaseTable) insert(i uint64, key uint64, val int64) {
	if key == 0 {
		panic("stream: leaseTable key 0 (empty-slot sentinel)")
	}
	if (t.n+1)*leaseTableLoadDen > len(t.slots)*leaseTableLoadNum {
		t.grow()
		i, _ = t.find(key)
	}
	t.slots[i] = leaseSlot{key: key, val: val}
	t.n++
}

// remove empties slot i and backshifts the probe chain behind it: every
// displaced entry whose home lies at or before the hole moves back into
// it.
func (t *leaseTable) remove(i uint64) {
	mask := uint64(len(t.slots) - 1)
	j := i
	for {
		j = (j + 1) & mask
		s := t.slots[j]
		if s.key == 0 {
			break
		}
		if h := t.home(s.key); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = leaseSlot{}
	t.n--
}

func (t *leaseTable) grow() {
	old := t.slots
	t.alloc(max(2*len(old), leaseTableMinCap))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// recycle readies an empty table for the next tenant of its object slot:
// it keeps its slots up to leaseTableKeepCap and drops larger ones.
func (t *leaseTable) recycle() {
	if len(t.slots) > leaseTableKeepCap {
		*t = leaseTable{}
	}
}
