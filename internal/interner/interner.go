// Package interner provides compact string↔ID interning used to map author
// and page names onto dense uint32 vertex identifiers. Dense IDs keep the
// graph containers slice-backed and cache-friendly, which matters at the
// scale of a month of social-network comments.
//
// There is one table: a map[string]ID and the id→name slice, under a
// sync.RWMutex. The common case on the ingest path — a name already seen —
// is a single map probe under the read lock, and the byte-slice variants
// make that probe without allocating a string. Only a new name takes the
// write lock, and the only copying the table ever does is the map's own
// growth.
package interner

import (
	"fmt"
	"sync"
)

// ID is a dense identifier handed out by an Interner, starting at 0.
type ID = uint32

// Interner assigns dense IDs to strings. The zero value is ready to use.
// It is safe for concurrent use.
type Interner struct {
	mu    sync.RWMutex
	ids   map[string]ID
	names []string
}

// New returns an Interner with capacity hint n.
func New(n int) *Interner {
	return &Interner{
		ids:   make(map[string]ID, n),
		names: make([]string, 0, n),
	}
}

// Intern returns the ID for s, assigning a fresh one if s is new.
func (in *Interner) Intern(s string) ID {
	if id, ok := in.Lookup(s); ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[s]; ok {
		return id
	}
	return in.addLocked(s)
}

// InternBytes is Intern for a byte-slice key. A name already interned is
// a no-copy map probe, so hot ingest never allocates a string per field;
// only a new name is copied into one.
func (in *Interner) InternBytes(b []byte) ID {
	in.mu.RLock()
	id, ok := in.ids[string(b)]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.internBytesLocked(b)
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
		if id, ok := in.ids[string(k)]; ok {
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
		out[i] = in.internBytesLocked(keys[i])
	}
}

// internBytesLocked resolves or assigns b: a miss under the read lock is
// checked again, since another writer (or an earlier key of the same
// batch) may have added the name in between. Caller holds the write lock.
func (in *Interner) internBytesLocked(b []byte) ID {
	if id, ok := in.ids[string(b)]; ok {
		return id
	}
	return in.addLocked(string(b))
}

// addLocked assigns the next ID to s, which is not in the table. Caller
// holds the write lock.
func (in *Interner) addLocked(s string) ID {
	if in.ids == nil {
		in.ids = make(map[string]ID)
	}
	id := ID(len(in.names))
	in.ids[s] = id
	in.names = append(in.names, s)
	return id
}

// Lookup returns the ID for s and whether it has been interned.
func (in *Interner) Lookup(s string) (ID, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	id, ok := in.ids[s]
	return id, ok
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
