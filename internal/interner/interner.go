// Package interner provides compact string↔ID interning used to map author
// and page names onto dense uint32 vertex identifiers. Dense IDs keep the
// graph containers slice-backed and cache-friendly, which matters at the
// scale of a month of social-network comments.
//
// There is one table: an open-addressed, linearly probed array of slots
// over the id→name slice, under a sync.RWMutex. A slot packs the upper
// half of a name's hash with its ID, so a probe compares names only on a
// tag match, and the table is kept at most half full. The hash is
// hash/maphash under a seed drawn at random per table, so names chosen to
// collide in one process do not collide in another. The common case on
// the ingest path — a name already seen — is one probe under the read
// lock, made straight from the caller's string or byte-slice view, with
// no copy. Only a new name takes the write lock; it is copied once into
// its string, and growth rehashes the names into a table twice the size.
package interner

import (
	"fmt"
	"hash/maphash"
	"math"
	"sync"
)

// ID is a dense identifier handed out by an Interner, starting at 0.
type ID = uint32

// Interner assigns dense IDs to strings. The zero value is ready to use.
// It is safe for concurrent use.
type Interner struct {
	mu   sync.RWMutex
	seed maphash.Seed
	// slots is the hash table, a power of two long, or nil while nothing
	// has been interned. A used slot holds the hash's upper 32 bits over
	// ID+1 in the lower 32; 0 is empty.
	slots []uint64
	names []string
}

// minSlots is the smallest table.
const minSlots = 8

// New returns an Interner with capacity hint n.
func New(n int) *Interner {
	in := &Interner{names: make([]string, 0, n)}
	in.resize(2 * n)
	return in
}

// resize rebuilds the table with room for at least n slots (and at least
// twice the names), drawing the seed on first use. Caller holds the write
// lock or owns the Interner outright.
func (in *Interner) resize(n int) {
	size := minSlots
	for size < n || size < 2*len(in.names) {
		size *= 2
	}
	if in.slots == nil {
		in.seed = maphash.MakeSeed()
	}
	in.slots = make([]uint64, size)
	mask := uint64(size - 1)
	for id, name := range in.names {
		h := maphash.String(in.seed, name)
		i := h & mask
		for in.slots[i] != 0 {
			i = (i + 1) & mask
		}
		in.slots[i] = slot(h, ID(id))
	}
}

// slot packs a name's hash and its ID into a table slot.
func slot(h uint64, id ID) uint64 { return h>>32<<32 | (uint64(id) + 1) }

// find probes the table for key, whose hash is h: the key's ID and true,
// or the index of the empty slot where the key would go and false.
// Caller holds either lock and has checked that the table exists.
func find[K string | []byte](in *Interner, key K, h uint64) (ID, uint64, bool) {
	mask := uint64(len(in.slots) - 1)
	tag := h >> 32
	for i := h & mask; ; i = (i + 1) & mask {
		s := in.slots[i]
		if s == 0 {
			return 0, i, false
		}
		if s>>32 == tag {
			if id := ID(s) - 1; in.names[id] == string(key) {
				return id, i, true
			}
		}
	}
}

// lookup is find for a caller holding either lock: a miss on an empty
// table needs no hash (and the zero Interner has no seed yet).
func lookup[K string | []byte](in *Interner, key K) (ID, bool) {
	if in.slots == nil {
		return 0, false
	}
	id, _, ok := find(in, key, hash(in.seed, key))
	return id, ok
}

// hash hashes a string or byte-slice key alike: maphash.Bytes and
// maphash.String agree on the same bytes.
func hash[K string | []byte](seed maphash.Seed, key K) uint64 {
	switch k := any(key).(type) {
	case string:
		return maphash.String(seed, k)
	default:
		return maphash.Bytes(seed, k.([]byte))
	}
}

// internLocked resolves or assigns key: a miss under the read lock is
// checked again, since another writer (or an earlier key of the same
// batch) may have added the name in between. Caller holds the write lock.
func internLocked[K string | []byte](in *Interner, key K) ID {
	if in.slots == nil {
		in.resize(0)
	}
	h := hash(in.seed, key)
	id, i, ok := find(in, key, h)
	if ok {
		return id
	}
	if len(in.names) == math.MaxUint32 {
		panic("interner: more names than a uint32 ID holds")
	}
	id = ID(len(in.names))
	in.names = append(in.names, string(key))
	if 2*len(in.names) > len(in.slots) {
		in.resize(2 * len(in.slots))
		return id
	}
	in.slots[i] = slot(h, id)
	return id
}

// Intern returns the ID for s, assigning a fresh one if s is new.
func (in *Interner) Intern(s string) ID {
	if id, ok := in.Lookup(s); ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return internLocked(in, s)
}

// InternBytes is Intern for a byte-slice key. A name already interned is
// a no-copy probe, so hot ingest never allocates a string per field;
// only a new name is copied into one.
func (in *Interner) InternBytes(b []byte) ID {
	in.mu.RLock()
	id, ok := lookup(in, b)
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return internLocked(in, b)
}

// InternBatchBytes interns keys[i] into out[i] for every i, taking each
// lock at most once regardless of batch size: hits resolve in one pass
// under the read lock, and only the misses go through one pass under the
// write lock. IDs are assigned in first-appearance order, exactly as a
// sequential Intern loop would. out must be at least len(keys) long.
func (in *Interner) InternBatchBytes(keys [][]byte, out []ID) {
	var missIdx []int
	in.mu.RLock()
	for i, k := range keys {
		if id, ok := lookup(in, k); ok {
			out[i] = id
		} else {
			missIdx = append(missIdx, i)
		}
	}
	in.mu.RUnlock()
	if len(missIdx) == 0 {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, i := range missIdx {
		out[i] = internLocked(in, keys[i])
	}
}

// Lookup returns the ID for s and whether it has been interned.
func (in *Interner) Lookup(s string) (ID, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return lookup(in, s)
}

// Name returns the string for id. It panics if id was never assigned.
func (in *Interner) Name(id ID) string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if int(id) >= len(in.names) {
		panic(fmt.Sprintf("interner: unknown id %d (have %d)", id, len(in.names)))
	}
	return in.names[id]
}

// Len reports how many distinct strings have been interned.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.names)
}
