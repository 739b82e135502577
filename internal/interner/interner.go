// Package interner provides compact string↔ID interning used to map author
// and page names onto dense uint32 vertex identifiers. Dense IDs keep the
// graph containers slice-backed and cache-friendly, which matters at the
// scale of a month of social-network comments.
//
// The read path is lock-free: lookups first consult a frozen read-only
// table published through an atomic pointer (the sync.Map promotion idiom,
// specialized to append-only string→ID data). Strings interned since the
// last promotion live in a mutex-guarded dirty table; once enough lookups
// fall through to it, the dirty table is re-frozen and republished. On the
// ingest hot path this makes the common case — a name already seen — a
// single map probe with no atomic RMW and no lock, and the byte-slice
// variants avoid allocating a string for that probe entirely.
package interner

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ID is a dense identifier handed out by an Interner, starting at 0.
type ID = uint32

// Interner assigns dense IDs to strings. The zero value is ready to use.
// It is safe for concurrent use.
type Interner struct {
	// ro is the frozen read-only table: a plain map published whole, never
	// mutated after the Store. Readers probe it without synchronization.
	ro atomic.Pointer[map[string]ID]

	mu sync.Mutex
	// ids is the authoritative table (a superset of *ro).
	ids   map[string]ID
	names []string
	// misses counts slow-path hits since the last promotion; when it
	// outgrows a fraction of the table the ro map is re-frozen.
	misses int
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
	if m := in.ro.Load(); m != nil {
		if id, ok := (*m)[s]; ok {
			return id
		}
	}
	in.mu.Lock()
	id := in.internLocked(s)
	in.maybePromoteLocked()
	in.mu.Unlock()
	return id
}

// InternBytes is Intern for a byte-slice key. On the fast path (already
// interned and promoted) the probe compiles to a no-copy map lookup, so
// hot ingest never allocates a string per field.
func (in *Interner) InternBytes(b []byte) ID {
	if m := in.ro.Load(); m != nil {
		if id, ok := (*m)[string(b)]; ok {
			return id
		}
	}
	in.mu.Lock()
	id := in.internBytesLocked(b)
	in.maybePromoteLocked()
	in.mu.Unlock()
	return id
}

// InternBatchBytes interns keys[i] into out[i] for every i, taking the
// write lock at most once regardless of batch size: hits against the
// frozen table resolve lock-free, and only the misses go through one
// locked pass. IDs are assigned in first-appearance order, exactly as a
// sequential Intern loop would. out must be at least len(keys) long.
func (in *Interner) InternBatchBytes(keys [][]byte, out []ID) {
	var missIdx []int
	m := in.ro.Load()
	for i, k := range keys {
		if m != nil {
			if id, ok := (*m)[string(k)]; ok {
				out[i] = id
				continue
			}
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) == 0 {
		return
	}
	in.mu.Lock()
	for _, i := range missIdx {
		out[i] = in.internBytesLocked(keys[i])
	}
	in.maybePromoteLocked()
	in.mu.Unlock()
}

// internBytesLocked is internLocked for a byte-slice key: only a new
// name is copied into a string. Caller holds in.mu.
func (in *Interner) internBytesLocked(b []byte) ID {
	if id, ok := in.ids[string(b)]; ok {
		in.misses++
		return id
	}
	return in.internLocked(string(b))
}

// internLocked resolves or assigns s. Caller holds in.mu.
func (in *Interner) internLocked(s string) ID {
	if id, ok := in.ids[s]; ok {
		in.misses++
		return id
	}
	if in.ids == nil {
		in.ids = make(map[string]ID)
	}
	id := ID(len(in.names))
	in.ids[s] = id
	in.names = append(in.names, s)
	in.misses++
	return id
}

// maybePromoteLocked re-freezes the authoritative table into a fresh
// read-only map once the slow path has been taken often enough that the
// copy amortizes. Caller holds in.mu.
func (in *Interner) maybePromoteLocked() {
	if in.misses <= len(in.ids)/4+16 {
		return
	}
	frozen := make(map[string]ID, len(in.ids))
	for s, id := range in.ids {
		frozen[s] = id
	}
	in.ro.Store(&frozen)
	in.misses = 0
}

// Lookup returns the ID for s and whether it has been interned.
func (in *Interner) Lookup(s string) (ID, bool) {
	if m := in.ro.Load(); m != nil {
		if id, ok := (*m)[s]; ok {
			return id, true
		}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	id, ok := in.ids[s]
	return id, ok
}

// Name returns the string for id. It panics if id was never assigned.
func (in *Interner) Name(id ID) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	if int(id) >= len(in.names) {
		panic(fmt.Sprintf("interner: unknown id %d (have %d)", id, len(in.names)))
	}
	return in.names[id]
}

// Len reports how many distinct strings have been interned.
func (in *Interner) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.names)
}

// Names returns a copy of the id→name table.
func (in *Interner) Names() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, len(in.names))
	copy(out, in.names)
	return out
}
