// Package ygmnet is this repo's substitution for YGM: the asynchronous
// message-driven rank model the paper runs on YGM/MPI, over real TCP links
// with serialized messages, so ranks can live in different processes (or
// machines). Handlers are registered by index —
// identically on every rank — and invoked with raw payload bytes; a
// Barrier completes only at global quiescence, established by a
// coordinator-led double-round counting protocol (Mattern-style): two
// consecutive counter sweeps with equal, balanced totals imply no message
// is in flight anywhere.
//
// In-process parallelism elsewhere in the repo is plain goroutine pools
// over shared memory; ygmnet (with internal/distrank) is the only home of
// rank/message semantics. It exists to make the distributed-substrate
// substitution real and is exercised by a full distributed projection
// (see tests) equal to the sequential Algorithm 1.
package ygmnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Handler processes one application message on the owning rank. Handlers
// may send further messages via n.Async. They run on the node's single
// executor goroutine, so rank-local state needs no locking.
type Handler func(n *Node, payload []byte)

// Config describes one rank of a cluster.
type Config struct {
	// Rank is this node's index in Addrs.
	Rank int
	// Addrs lists every rank's listen address, in rank order.
	Addrs []string
}

// Node is one rank of a ygmnet cluster.
type Node struct {
	rank int
	n    int

	ln      net.Listener
	peers   []*peerLink // by rank; peers[rank] == nil
	inMu    sync.Mutex
	inConns []net.Conn // accepted links (closed on shutdown)

	handlers []Handler
	sealMu   sync.Mutex
	sealCond *sync.Cond
	sealed   bool

	inbox *msgQueue

	sent      atomic.Int64 // app messages sent (incl. self)
	processed atomic.Int64 // app messages fully handled

	// Barrier machinery.
	epoch      uint64 // completed barrier epochs
	releaseMu  sync.Mutex
	releaseCon *sync.Cond
	released   uint64 // highest released epoch

	// Coordinator state (rank 0 only).
	coordMu      sync.Mutex
	enterCount   map[uint64]int
	reports      map[uint64]map[uint64][]reportVal // epoch → round → per-rank
	coordKick    chan struct{}
	coordRunning bool

	closed   atomic.Bool
	readErr  atomic.Value // first reader error, for diagnostics
	wg       sync.WaitGroup
	writerWg sync.WaitGroup
}

type reportVal struct {
	rank      int
	sent      uint64
	processed uint64
}

type peerLink struct {
	conn net.Conn
	out  *msgQueue
}

// queued message: either bytes destined to a peer (raw frame payload with
// type), or a local app message.
type qmsg struct {
	ft      frameType
	payload []byte
}

// msgQueue is an unbounded MPSC queue (same rationale as ygm.mailbox).
type msgQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []qmsg
	closed bool
}

func newMsgQueue() *msgQueue {
	q := &msgQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *msgQueue) push(m qmsg) {
	q.mu.Lock()
	q.items = append(q.items, m)
	q.mu.Unlock()
	q.cond.Signal()
}

func (q *msgQueue) pop() (qmsg, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return qmsg{}, false
	}
	m := q.items[0]
	q.items = q.items[1:]
	if len(q.items) == 0 {
		q.items = nil
	}
	return m, true
}

func (q *msgQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Start brings up a node: it listens on its own address, dials every peer,
// and begins executing incoming messages. Register all handlers (in the
// same order on every rank) before sending traffic.
func Start(cfg Config) (*Node, error) {
	nRanks := len(cfg.Addrs)
	if cfg.Rank < 0 || cfg.Rank >= nRanks {
		return nil, fmt.Errorf("ygmnet: rank %d out of range (%d addrs)", cfg.Rank, nRanks)
	}
	ln, err := net.Listen("tcp", cfg.Addrs[cfg.Rank])
	if err != nil {
		return nil, fmt.Errorf("ygmnet: listen %s: %w", cfg.Addrs[cfg.Rank], err)
	}
	n := &Node{
		rank:       cfg.Rank,
		n:          nRanks,
		ln:         ln,
		peers:      make([]*peerLink, nRanks),
		inbox:      newMsgQueue(),
		enterCount: make(map[uint64]int),
		reports:    make(map[uint64]map[uint64][]reportVal),
		coordKick:  make(chan struct{}, 16),
	}
	n.releaseCon = sync.NewCond(&n.releaseMu)
	n.sealCond = sync.NewCond(&n.sealMu)

	// Accept inbound links (n-1 of them).
	n.wg.Add(1)
	go n.acceptLoop()

	// Dial outbound links with retry (peers may not be up yet).
	for r := 0; r < nRanks; r++ {
		if r == n.rank {
			continue
		}
		conn, err := dialRetry(cfg.Addrs[r], 5*time.Second)
		if err != nil {
			n.Close()
			return nil, fmt.Errorf("ygmnet: dial rank %d (%s): %w", r, cfg.Addrs[r], err)
		}
		var hello [8]byte
		binary.BigEndian.PutUint64(hello[:], uint64(n.rank))
		if err := writeFrame(conn, ftHello, hello[:]); err != nil {
			n.Close()
			return nil, err
		}
		pl := &peerLink{conn: conn, out: newMsgQueue()}
		n.peers[r] = pl
		n.writerWg.Add(1)
		go n.writeLoop(pl)
	}

	// Executor.
	n.wg.Add(1)
	go n.execLoop()
	if n.rank == 0 {
		n.wg.Add(1)
		go n.coordinate()
	}
	return n, nil
}

func dialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Rank returns this node's rank.
func (n *Node) Rank() int { return n.rank }

// NRanks returns the cluster size.
func (n *Node) NRanks() int { return n.n }

// Register adds a handler and returns its id. Must be called in the same
// order on every rank, before Seal.
func (n *Node) Register(h Handler) uint16 {
	n.sealMu.Lock()
	defer n.sealMu.Unlock()
	if n.sealed {
		panic("ygmnet: Register after Seal")
	}
	id := uint16(len(n.handlers))
	n.handlers = append(n.handlers, h)
	return id
}

// Seal freezes the handler table and starts message execution. Messages
// arriving before Seal queue up; none are handled until it is called.
// Call exactly once, after all Register calls, before communicating.
func (n *Node) Seal() {
	n.sealMu.Lock()
	n.sealed = true
	n.sealMu.Unlock()
	n.sealCond.Broadcast()
}

func (n *Node) waitSealed() {
	n.sealMu.Lock()
	for !n.sealed {
		n.sealCond.Wait()
	}
	n.sealMu.Unlock()
}

// Async sends payload to handler id on rank dest. Never blocks. The
// payload is not retained by the caller after return.
func (n *Node) Async(dest int, handler uint16, payload []byte) {
	if dest < 0 || dest >= n.n {
		panic(fmt.Sprintf("ygmnet: async to invalid rank %d", dest))
	}
	n.sent.Add(1)
	body := appPayload(handler, payload)
	if dest == n.rank {
		n.inbox.push(qmsg{ft: ftApp, payload: body})
		return
	}
	n.peers[dest].out.push(qmsg{ft: ftApp, payload: body})
}

// acceptLoop accepts the n-1 inbound links and spawns readers.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for accepted := 0; accepted < n.n-1; accepted++ {
		conn, err := n.ln.Accept()
		if err != nil {
			return // closed
		}
		n.inMu.Lock()
		if n.closed.Load() {
			n.inMu.Unlock()
			conn.Close()
			return
		}
		n.inConns = append(n.inConns, conn)
		n.inMu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop decodes frames from one inbound link. App frames go to the
// inbox; control frames are handled inline (they only touch atomic
// counters and coordinator state).
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	buf := make([]byte, 4096)
	// First frame must be hello.
	ft, body, err := readFrame(conn, buf)
	if err != nil || ft != ftHello {
		conn.Close()
		return
	}
	_ = getU64(body, 0) // peer rank (informational)
	for {
		ft, body, err := readFrame(conn, buf)
		if err != nil {
			// EOF means the peer finished and closed its side — normal
			// during shutdown, when ranks complete at different times.
			if !n.closed.Load() && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				n.readErr.CompareAndSwap(nil, err)
			}
			return
		}
		switch ft {
		case ftApp:
			// Copy out of the read buffer: the queue outlives it.
			cp := make([]byte, len(body))
			copy(cp, body)
			n.inbox.push(qmsg{ft: ftApp, payload: cp})
		case ftEnter:
			n.onEnter(getU64(body, 0))
		case ftReportReq:
			epoch, round := getU64(body, 0), getU64(body, 1)
			n.sendReport(epoch, round)
		case ftReport:
			n.onReport(body)
		case ftRelease:
			n.onRelease(getU64(body, 0))
		}
	}
}

// writeLoop drains one peer's outbound queue onto its connection. On
// shutdown the queue is closed but fully drained first, so frames queued
// before Close (e.g. the final barrier release) still reach the peer.
func (n *Node) writeLoop(pl *peerLink) {
	defer n.writerWg.Done()
	for {
		m, ok := pl.out.pop()
		if !ok {
			return
		}
		if err := writeFrame(pl.conn, m.ft, m.payload); err != nil {
			if !n.closed.Load() {
				n.readErr.CompareAndSwap(nil, err)
			}
			return
		}
	}
}

// execLoop runs app handlers in arrival order, starting once sealed.
func (n *Node) execLoop() {
	defer n.wg.Done()
	n.waitSealed()
	for {
		m, ok := n.inbox.pop()
		if !ok {
			return
		}
		id := binary.BigEndian.Uint16(m.payload)
		n.handlers[id](n, m.payload[2:])
		n.processed.Add(1)
	}
}

// ctrlTo sends a control frame to rank dest (self delivered inline).
func (n *Node) ctrlTo(dest int, ft frameType, payload []byte) {
	if dest == n.rank {
		switch ft {
		case ftEnter:
			n.onEnter(getU64(payload, 0))
		case ftReportReq:
			n.sendReport(getU64(payload, 0), getU64(payload, 1))
		case ftReport:
			n.onReport(payload)
		case ftRelease:
			n.onRelease(getU64(payload, 0))
		}
		return
	}
	n.peers[dest].out.push(qmsg{ft: ft, payload: payload})
}

// Barrier blocks until every rank has entered this epoch's barrier and the
// cluster is quiescent (all app messages, transitively, processed).
func (n *Node) Barrier() {
	epoch := atomic.AddUint64(&n.epoch, 1)
	n.ctrlTo(0, ftEnter, putU64s(epoch))
	n.releaseMu.Lock()
	for n.released < epoch {
		n.releaseCon.Wait()
	}
	n.releaseMu.Unlock()
}

func (n *Node) onRelease(epoch uint64) {
	n.releaseMu.Lock()
	if epoch > n.released {
		n.released = epoch
	}
	n.releaseMu.Unlock()
	n.releaseCon.Broadcast()
}

func (n *Node) sendReport(epoch, round uint64) {
	n.ctrlTo(0, ftReport, putU64s(epoch, round, uint64(n.rank),
		uint64(n.sent.Load()), uint64(n.processed.Load())))
}

// --- coordinator (rank 0) ---

func (n *Node) onEnter(epoch uint64) {
	n.coordMu.Lock()
	n.enterCount[epoch]++
	n.coordMu.Unlock()
	n.kick()
}

func (n *Node) onReport(body []byte) {
	epoch, round := getU64(body, 0), getU64(body, 1)
	rv := reportVal{
		rank:      int(getU64(body, 2)),
		sent:      getU64(body, 3),
		processed: getU64(body, 4),
	}
	n.coordMu.Lock()
	if n.reports[epoch] == nil {
		n.reports[epoch] = make(map[uint64][]reportVal)
	}
	n.reports[epoch][round] = append(n.reports[epoch][round], rv)
	n.coordMu.Unlock()
	n.kick()
}

func (n *Node) kick() {
	select {
	case n.coordKick <- struct{}{}:
	default:
	}
}

// coordinate drives barrier epochs to completion on rank 0.
func (n *Node) coordinate() {
	defer n.wg.Done()
	currentEpoch := uint64(1)
	round := uint64(0)
	var prevSent, prevProc uint64
	havePrev := false
	requested := false

	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		if n.closed.Load() {
			return
		}
		select {
		case <-n.coordKick:
		case <-ticker.C:
		}
		n.coordMu.Lock()
		entered := n.enterCount[currentEpoch]
		if entered < n.n {
			n.coordMu.Unlock()
			continue
		}
		if !requested {
			round++
			n.coordMu.Unlock()
			req := putU64s(currentEpoch, round)
			for r := 0; r < n.n; r++ {
				n.ctrlTo(r, ftReportReq, req)
			}
			requested = true
			continue
		}
		reports := n.reports[currentEpoch][round]
		if len(reports) < n.n {
			n.coordMu.Unlock()
			continue
		}
		var sumSent, sumProc uint64
		for _, rv := range reports {
			sumSent += rv.sent
			sumProc += rv.processed
		}
		n.coordMu.Unlock()

		if sumSent == sumProc && havePrev && prevSent == sumSent && prevProc == sumProc {
			// Two consecutive balanced, unchanged sweeps → quiescent.
			rel := putU64s(currentEpoch)
			for r := 0; r < n.n; r++ {
				n.ctrlTo(r, ftRelease, rel)
			}
			n.coordMu.Lock()
			delete(n.enterCount, currentEpoch)
			delete(n.reports, currentEpoch)
			n.coordMu.Unlock()
			currentEpoch++
			round = 0
			havePrev = false
			requested = false
			continue
		}
		prevSent, prevProc, havePrev = sumSent, sumProc, true
		requested = false // issue the next sweep
	}
}

// Err returns the first transport error observed (nil if none).
func (n *Node) Err() error {
	if v := n.readErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Close tears the node down. Call only at quiescence (after a final
// Barrier): in-flight messages are not flushed.
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	n.Seal() // unblock the executor if never sealed
	n.kick()
	// Flush outbound queues before tearing connections down: frames
	// queued before Close (final barrier releases, late reports) must
	// reach their peers.
	for _, pl := range n.peers {
		if pl != nil {
			pl.out.close()
		}
	}
	n.writerWg.Wait()
	if n.ln != nil {
		n.ln.Close()
	}
	n.inbox.close()
	for _, pl := range n.peers {
		if pl != nil {
			pl.conn.Close()
		}
	}
	n.inMu.Lock()
	for _, conn := range n.inConns {
		conn.Close()
	}
	n.inMu.Unlock()
	n.wg.Wait()
	return nil
}
