package ygmnet

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
)

func TestClusterBasicAsync(t *testing.T) {
	var hits atomic.Int64
	var handler uint16
	c, err := StartLocal(3, func(n *Node) {
		handler = n.Register(func(_ *Node, payload []byte) {
			hits.Add(int64(binary.BigEndian.Uint64(payload)))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(func(n *Node) {
		var p [8]byte
		binary.BigEndian.PutUint64(p[:], 1)
		for d := 0; d < n.NRanks(); d++ {
			n.Async(d, handler, p[:])
		}
		n.Barrier()
	})
	if got := hits.Load(); got != 9 {
		t.Fatalf("hits = %d, want 9", got)
	}
	for _, nd := range c.Nodes {
		if err := nd.Err(); err != nil {
			t.Fatalf("transport error: %v", err)
		}
	}
}

func TestBarrierDrainsNetworkCascades(t *testing.T) {
	// Each message spawns children on every rank until depth exhausts;
	// the barrier must wait for the full tree across real TCP links.
	var leaves atomic.Int64
	var cascade uint16
	c, err := StartLocal(3, func(n *Node) {
		cascade = n.Register(func(nd *Node, payload []byte) {
			depth := binary.BigEndian.Uint64(payload)
			if depth == 0 {
				leaves.Add(1)
				return
			}
			var p [8]byte
			binary.BigEndian.PutUint64(p[:], depth-1)
			for d := 0; d < nd.NRanks(); d++ {
				nd.Async(d, cascade, p[:])
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(func(n *Node) {
		var p [8]byte
		binary.BigEndian.PutUint64(p[:], 4)
		n.Async((n.Rank()+1)%n.NRanks(), cascade, p[:])
		n.Barrier()
		// 3 roots, each expanding to 3^4 leaves.
		if got := leaves.Load(); got != 3*81 {
			t.Errorf("rank %d saw %d leaves after barrier, want %d", n.Rank(), got, 3*81)
		}
	})
}

func TestMultipleEpochs(t *testing.T) {
	var count atomic.Int64
	var inc uint16
	c, err := StartLocal(4, func(n *Node) {
		inc = n.Register(func(_ *Node, _ []byte) { count.Add(1) })
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(func(n *Node) {
		for round := int64(1); round <= 5; round++ {
			n.Async((n.Rank()+1)%n.NRanks(), inc, nil)
			n.Barrier()
			if got := count.Load(); got != 4*round {
				t.Errorf("round %d: count = %d, want %d", round, got, 4*round)
			}
			n.Barrier() // separate reads from next round's sends
		}
	})
}

func TestCounterAcrossProcesses(t *testing.T) {
	counters := make([]*Counter, 4)
	c, err := StartLocal(4, func(n *Node) {
		counters[n.Rank()] = NewCounter(n)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const perRank = 1000
	c.Run(func(n *Node) {
		cnt := counters[n.Rank()]
		for i := 0; i < perRank; i++ {
			cnt.AsyncAdd(uint64(i%97), 1)
		}
		n.Barrier()
	})
	total := int64(0)
	keys := make(map[uint64]bool)
	for r, cnt := range counters {
		for k, v := range cnt.LocalShard() {
			total += v
			if keys[k] {
				t.Fatalf("key %d owned by two ranks", k)
			}
			keys[k] = true
			if own := cnt.Owner(k); own != r {
				t.Fatalf("key %d stored on rank %d, owner %d", k, r, own)
			}
		}
	}
	if total != 4*perRank {
		t.Fatalf("total = %d, want %d", total, 4*perRank)
	}
	if len(keys) != 97 {
		t.Fatalf("distinct keys = %d, want 97", len(keys))
	}
}

func TestReduceMapU32(t *testing.T) {
	maps := make([]*ReduceMapU32, 3)
	c, err := StartLocal(3, func(n *Node) {
		maps[n.Rank()] = NewReduceMapU32(n)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(func(n *Node) {
		m := maps[n.Rank()]
		for k := uint64(0); k < 50; k++ {
			m.AsyncAdd(k, 2)
		}
		n.Barrier()
	})
	for k := uint64(0); k < 50; k++ {
		got := maps[maps[0].Owner(k)].LocalShard()[k]
		if got != 6 {
			t.Fatalf("key %d = %d, want 6", k, got)
		}
	}
}

func TestSingleRankCluster(t *testing.T) {
	var n atomic.Int64
	var h uint16
	c, err := StartLocal(1, func(nd *Node) {
		h = nd.Register(func(_ *Node, _ []byte) { n.Add(1) })
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(func(nd *Node) {
		nd.Async(0, h, nil)
		nd.Barrier()
	})
	if n.Load() != 1 {
		t.Fatalf("n = %d", n.Load())
	}
}

func TestRegisterAfterSealPanics(t *testing.T) {
	c, err := StartLocal(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Nodes[0].Register(func(*Node, []byte) {})
}

func TestInvalidDestPanics(t *testing.T) {
	c, err := StartLocal(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Nodes[0].Async(7, 0, nil)
}

func TestStatsAccounting(t *testing.T) {
	var h uint16
	c, err := StartLocal(2, func(n *Node) {
		h = n.Register(func(*Node, []byte) {})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(func(n *Node) {
		if n.Rank() == 0 {
			for i := 0; i < 10; i++ {
				n.Async(1, h, nil)
			}
		}
		n.Barrier()
	})
	sent0, proc1 := c.Nodes[0].sent.Load(), c.Nodes[1].processed.Load()
	if sent0 != 10 || proc1 != 10 {
		t.Fatalf("sent0=%d proc1=%d, want 10/10", sent0, proc1)
	}
}
