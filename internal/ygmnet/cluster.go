package ygmnet

import (
	"fmt"
	"net"
)

// Cluster is a convenience handle over a set of local nodes (one per rank,
// same process, real TCP links over loopback). It exists for tests,
// examples, and single-machine runs; multi-process deployments call Start
// directly with a shared address list.
type Cluster struct {
	Nodes []*Node
}

// freePorts reserves n distinct loopback TCP addresses.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	defer func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// StartLocal brings up an n-rank cluster on loopback. setup is called once
// per node to register handlers (same order everywhere — typically by
// constructing the same containers); after setup every node is sealed.
func StartLocal(n int, setup func(node *Node)) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("ygmnet: need at least 1 rank")
	}
	addrs, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Nodes: make([]*Node, n)}
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		go func(r int) {
			node, err := Start(Config{Rank: r, Addrs: addrs})
			if err != nil {
				errs <- fmt.Errorf("rank %d: %w", r, err)
				return
			}
			c.Nodes[r] = node
			errs <- nil
		}(r)
	}
	var firstErr error
	for r := 0; r < n; r++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		c.Close()
		return nil, firstErr
	}
	for _, node := range c.Nodes {
		if setup != nil {
			setup(node)
		}
		node.Seal()
	}
	return c, nil
}

// Run executes body SPMD-style, one goroutine per rank, and waits for all.
func (c *Cluster) Run(body func(node *Node)) {
	done := make(chan struct{}, len(c.Nodes))
	for _, node := range c.Nodes {
		go func(nd *Node) {
			body(nd)
			done <- struct{}{}
		}(node)
	}
	for range c.Nodes {
		<-done
	}
}

// Close shuts every node down.
func (c *Cluster) Close() {
	for _, node := range c.Nodes {
		if node != nil {
			node.Close()
		}
	}
}
