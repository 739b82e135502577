package ygmnet

import (
	"encoding/binary"
	"sync"
)

// Serialized counterparts of the YGM containers used by the pipeline's
// distributed steps: a counting map over uint64 keys and a reducing map
// uint64→uint32. Keys are hash-partitioned across ranks; payloads are
// fixed-width big-endian encodings.

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Counter is a distributed uint64→int64 counting map.
type Counter struct {
	node    *Node
	handler uint16
	mu      sync.Mutex
	local   map[uint64]int64
}

// NewCounter creates a Counter on node (construct before Seal, identically
// on every rank).
func NewCounter(node *Node) *Counter {
	c := &Counter{node: node, local: make(map[uint64]int64)}
	c.handler = node.Register(func(_ *Node, payload []byte) {
		key := binary.BigEndian.Uint64(payload)
		delta := int64(binary.BigEndian.Uint64(payload[8:]))
		c.mu.Lock()
		c.local[key] += delta
		c.mu.Unlock()
	})
	return c
}

// Owner returns the rank owning key k.
func (c *Counter) Owner(k uint64) int { return int(mix64(k) % uint64(c.node.n)) }

// AsyncAdd adds delta to key k at its owner.
func (c *Counter) AsyncAdd(k uint64, delta int64) {
	var payload [16]byte
	binary.BigEndian.PutUint64(payload[:8], k)
	binary.BigEndian.PutUint64(payload[8:], uint64(delta))
	c.node.Async(c.Owner(k), c.handler, payload[:])
}

// LocalShard copies this rank's shard. Call at quiescence.
func (c *Counter) LocalShard() map[uint64]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint64]int64, len(c.local))
	for k, v := range c.local {
		out[k] = v
	}
	return out
}

// StrCounter is a distributed string→int64 counting map. Keys are owned by
// hash; payloads are [4B big-endian key length][key bytes][8B delta]. It
// exists for multi-process deployments where ranks share no interner:
// author and page identities travel as names, so no global ID assignment
// round is needed.
type StrCounter struct {
	node    *Node
	handler uint16
	mu      sync.Mutex
	local   map[string]int64
}

// NewStrCounter creates a StrCounter on node (before Seal, all ranks).
func NewStrCounter(node *Node) *StrCounter {
	c := &StrCounter{node: node, local: make(map[string]int64)}
	c.handler = node.Register(func(_ *Node, payload []byte) {
		klen := binary.BigEndian.Uint32(payload)
		key := string(payload[4 : 4+klen])
		delta := int64(binary.BigEndian.Uint64(payload[4+klen:]))
		c.mu.Lock()
		c.local[key] += delta
		c.mu.Unlock()
	})
	return c
}

// HashString is FNV-1a 64 followed by the SplitMix64 finalizer, over the
// bytes of a name however it is held: StrCounter owns keys by it and
// distrank owns pages by it. Every rank process must compute the same
// value for the same name, so a change here is a wire-protocol change.
func HashString[T string | []byte](s T) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return mix64(h)
}

// Owner returns the rank owning key k.
func (c *StrCounter) Owner(k string) int { return int(HashString(k) % uint64(c.node.n)) }

// AsyncAdd adds delta to key k at its owner.
func (c *StrCounter) AsyncAdd(k string, delta int64) {
	payload := make([]byte, 4+len(k)+8)
	binary.BigEndian.PutUint32(payload, uint32(len(k)))
	copy(payload[4:], k)
	binary.BigEndian.PutUint64(payload[4+len(k):], uint64(delta))
	c.node.Async(c.Owner(k), c.handler, payload)
}

// LocalShard copies this rank's shard. Call at quiescence.
func (c *StrCounter) LocalShard() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.local))
	for k, v := range c.local {
		out[k] = v
	}
	return out
}

// ReduceMapU32 is a distributed uint64→uint32 map with additive reduce —
// the shape of the projection's edge-weight accumulator.
type ReduceMapU32 struct {
	node    *Node
	handler uint16
	mu      sync.Mutex
	local   map[uint64]uint32
}

// NewReduceMapU32 creates the map on node (before Seal, all ranks).
func NewReduceMapU32(node *Node) *ReduceMapU32 {
	m := &ReduceMapU32{node: node, local: make(map[uint64]uint32)}
	m.handler = node.Register(func(_ *Node, payload []byte) {
		key := binary.BigEndian.Uint64(payload)
		w := binary.BigEndian.Uint32(payload[8:])
		m.mu.Lock()
		m.local[key] += w
		m.mu.Unlock()
	})
	return m
}

// Owner returns the rank owning key k.
func (m *ReduceMapU32) Owner(k uint64) int { return int(mix64(k) % uint64(m.node.n)) }

// AsyncAdd adds w to key k at its owner.
func (m *ReduceMapU32) AsyncAdd(k uint64, w uint32) {
	var payload [12]byte
	binary.BigEndian.PutUint64(payload[:8], k)
	binary.BigEndian.PutUint32(payload[8:], w)
	m.node.Async(m.Owner(k), m.handler, payload[:])
}

// LocalShard copies this rank's shard. Call at quiescence.
func (m *ReduceMapU32) LocalShard() map[uint64]uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[uint64]uint32, len(m.local))
	for k, v := range m.local {
		out[k] = v
	}
	return out
}
