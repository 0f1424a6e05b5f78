package ygm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// tcpTransport routes every batch through a TCP socket with uvarint length
// framing. Historically it proved the simulated-rank runtime is a faithful
// RPC port of the MPI original — every rank local, loopback sockets. Since
// PR 8 the same machinery carries a world across OS processes: each process
// listens for its local span and dials every other rank in the world, local
// or remote, using the peer table a rendezvous distributed.
//
// Topology: every local rank owns a listener; every ordered pair (i, j)
// with i local gets a dedicated connection dialed from i to j, written only
// by rank i's goroutine. Each local listener j accepts one connection from
// every other rank in the world (remote processes dial in the same way),
// drained by a reader goroutine that pushes frames into rank j's mailbox.
// Self-sends short-circuit to the mailbox.
//
// Handshake: the dialer opens with the versioned hello of handshake.go
// (magic, protocol version, world size, (from, to) rank pair), so the
// acceptor binds the pair without trusting dial order and mismatched
// builds or worlds fail with typed errors instead of mis-framing.
//
// Lifecycle: every connection is registered (under mu) the moment it
// exists — dialed conns before their hello write, accepted conns before
// their hello read — so a mid-setup failure can close the lot exactly
// once, unblock every goroutine parked in Accept/ReadFull, and surface the
// root-cause error to the caller (close errors never mask it). Setup
// deadlines bound the wait for a peer process that registered with the
// rendezvous and then died: Accept and the hello reads/writes time out
// instead of wedging the surviving processes.
type tcpTransport struct {
	w         *World
	listeners []net.Listener
	addrs     []string // bound address per local rank, rank order
	writers   [][]*bufio.Writer
	hdrs      [][]byte // per-sender varint scratch; a stack hdr would escape into bufio.Write and cost one heap alloc per frame
	readersWG sync.WaitGroup

	mu     sync.Mutex
	conns  []net.Conn // all connections, for teardown
	closed bool       // set by close(); late registrations are closed on the spot

	closeOnce sync.Once
	closeErr  error
}

// tcpSetupTimeout bounds the construction phase: how long an accept loop
// waits for the world's remaining dials and how long a handshake read or
// write may take. A peer process that dies mid-rendezvous therefore fails
// every surviving process within this bound rather than deadlocking it.
const tcpSetupTimeout = 30 * time.Second

// tcpDialHook lets lifecycle tests inject a dial failure for a specific
// (from, to) pair; nil outside tests.
var tcpDialHook func(from, to int) error

func (t *tcpTransport) registerConn(c net.Conn) {
	t.mu.Lock()
	if t.closed {
		// Teardown already swept the registry: an accept that raced past
		// the listener close must not leak its connection.
		t.mu.Unlock()
		c.Close()
		return
	}
	t.conns = append(t.conns, c)
	t.mu.Unlock()
}

type tcpAccepted struct {
	to   int
	conn net.Conn
	from int
	err  error
}

// deadliner is the subset of net.TCPListener teardown needs to bound
// Accept; all stdlib TCP listeners implement it.
type deadliner interface {
	SetDeadline(time.Time) error
}

func newTCPTransport(w *World, topo *Topology) (*tcpTransport, error) {
	n := w.n
	first, local := w.first, w.local
	t := &tcpTransport{
		w:       w,
		addrs:   make([]string, local),
		writers: make([][]*bufio.Writer, n),
		hdrs:    make([][]byte, n),
	}
	for i := first; i < first+local; i++ {
		t.writers[i] = make([]*bufio.Writer, n)
		t.hdrs[i] = make([]byte, binary.MaxVarintLen64)
	}
	// Listen phase: adopt the rendezvous's pre-bound listeners, or bind one
	// per local rank on the configured address (default loopback).
	if topo != nil && len(topo.Listeners) > 0 {
		if len(topo.Listeners) != local {
			return nil, fmt.Errorf("ygm: %d pre-bound listeners for a local span of %d", len(topo.Listeners), local)
		}
		t.listeners = append([]net.Listener(nil), topo.Listeners...)
	} else {
		addr := w.opts.ListenAddr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		t.listeners = make([]net.Listener, local)
		for j := 0; j < local; j++ {
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				t.close()
				return nil, err
			}
			t.listeners[j] = ln
		}
	}
	for j, ln := range t.listeners {
		t.addrs[j] = ln.Addr().String()
	}
	// The dial table: where every rank in the world listens. A
	// single-process world dials its own listeners; a multi-process world
	// dials the rendezvous's peer table.
	peers := t.addrs
	peerAddr := func(j int) string { return peers[j] }
	if topo != nil && len(topo.Peers) == n {
		peerAddr = func(j int) string { return topo.Peers[j] }
	} else if local != n {
		t.close()
		return nil, fmt.Errorf("ygm: local span [%d, %d) of world %d without a peer table", first, first+local, n)
	}
	// Accept loop per local listener: every other rank in the world dials
	// in exactly once, identifying itself with the versioned hello.
	// Accepted conns are registered before the hello read, so an abort's
	// close() unblocks ReadFull and the goroutine exits; acceptWG lets the
	// abort path wait for that before draining the channel. The listener
	// deadline bounds the wait for peers that died after registering.
	acceptCh := make(chan tcpAccepted, local*(n-1))
	var acceptWG sync.WaitGroup
	deadline := time.Now().Add(tcpSetupTimeout)
	for idx, ln := range t.listeners {
		to := first + idx
		ln := ln
		if d, ok := ln.(deadliner); ok {
			d.SetDeadline(deadline)
		}
		acceptWG.Add(1)
		go func() {
			defer acceptWG.Done()
			for k := 0; k < n-1; k++ { // every rank but `to` dials in
				conn, err := ln.Accept()
				if err != nil {
					acceptCh <- tcpAccepted{to: to, err: err}
					return
				}
				t.registerConn(conn)
				conn.SetReadDeadline(deadline)
				var buf [helloSize]byte
				if _, err := io.ReadFull(conn, buf[:]); err != nil {
					acceptCh <- tcpAccepted{to: to, err: fmt.Errorf("hello read for rank %d: %w", to, err)}
					return
				}
				h, err := decodeHello(buf[:])
				if err == nil {
					err = validateHello(h, uint32(n), to)
				}
				if err != nil {
					acceptCh <- tcpAccepted{to: to, err: err}
					return
				}
				conn.SetReadDeadline(time.Time{})
				acceptCh <- tcpAccepted{to: to, conn: conn, from: int(h.From)}
			}
		}()
	}
	// abort tears down a partially built transport: close everything
	// registered so far (which unblocks Accept and ReadFull), wait for the
	// accept goroutines, and drain their channel. The triggering error is
	// what the caller reports; nothing here can mask it.
	abort := func() {
		t.close()
		acceptWG.Wait()
		for {
			select {
			case <-acceptCh:
			default:
				return
			}
		}
	}
	// Connect phase: every local rank dials every other rank in the world.
	for i := first; i < first+local; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if tcpDialHook != nil {
				if err := tcpDialHook(i, j); err != nil {
					abort()
					return nil, err
				}
			}
			conn, err := net.DialTimeout("tcp", peerAddr(j), tcpSetupTimeout)
			if err != nil {
				abort()
				return nil, fmt.Errorf("dial rank %d at %s: %w", j, peerAddr(j), err)
			}
			t.registerConn(conn)
			conn.SetWriteDeadline(deadline)
			hello := encodeHello(uint32(n), uint32(i), uint32(j))
			if _, err := conn.Write(hello[:]); err != nil {
				abort()
				return nil, fmt.Errorf("hello write %d->%d: %w", i, j, err)
			}
			conn.SetWriteDeadline(time.Time{})
			t.writers[i][j] = bufio.NewWriterSize(conn, 64<<10)
		}
	}
	// Collect accepted connections and start a reader per (from, to) pair.
	for k := 0; k < local*(n-1); k++ {
		a := <-acceptCh
		if a.err != nil {
			abort()
			return nil, a.err
		}
		t.readersWG.Add(1)
		go t.readLoop(a.conn, a.to)
	}
	// Setup is complete: further Accept calls would block forever anyway,
	// but clear the deadlines so nothing fires spuriously at close time.
	for _, ln := range t.listeners {
		if d, ok := ln.(deadliner); ok {
			d.SetDeadline(time.Time{})
		}
	}
	return t, nil
}

func (t *tcpTransport) readLoop(conn net.Conn, to int) {
	defer t.readersWG.Done()
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return // connection closed during teardown
		}
		if size == 0 {
			// An empty batch carries no messages: nothing to read, and no
			// reason to cycle a free buffer through the mailbox for it.
			continue
		}
		batch := t.w.getBatch()
		if cap(batch) < int(size) {
			// Swap the undersized free buffer for a right-sized one; it
			// joins the world's free list after processing, so
			// steady-state receives stop allocating.
			t.w.putBatch(batch)
			batch = make([]byte, size, int(size)+batchSlack)
		} else {
			batch = batch[:size]
		}
		if _, err := io.ReadFull(br, batch); err != nil {
			return
		}
		t.w.ranks[to].inbox.push(batch)
	}
}

func (t *tcpTransport) deliver(from, to int, batch []byte) {
	if from == to {
		t.w.ranks[to].inbox.push(batch)
		return
	}
	bw := t.writers[from][to]
	// hdrs[from] is owned by the sending rank's goroutine for the duration
	// of the write (self-delivery never reaches here, and each rank flushes
	// its own destinations serially).
	hdr := t.hdrs[from]
	n := binary.PutUvarint(hdr, uint64(len(batch)))
	if _, err := bw.Write(hdr[:n]); err != nil {
		panic(fmt.Sprintf("ygm: tcp write %d->%d: %v", from, to, err))
	}
	if _, err := bw.Write(batch); err != nil {
		panic(fmt.Sprintf("ygm: tcp write %d->%d: %v", from, to, err))
	}
	// Flush eagerly: Barrier's termination detection requires that a sent
	// message is observable at the destination without further local action.
	if err := bw.Flush(); err != nil {
		panic(fmt.Sprintf("ygm: tcp flush %d->%d: %v", from, to, err))
	}
	t.w.putBatch(batch)
}

func (t *tcpTransport) close() error {
	t.closeOnce.Do(func() {
		for _, ln := range t.listeners {
			if ln != nil {
				if err := ln.Close(); err != nil && t.closeErr == nil {
					t.closeErr = err
				}
			}
		}
		t.mu.Lock()
		conns := t.conns
		t.conns = nil
		t.closed = true
		t.mu.Unlock()
		for _, c := range conns {
			if err := c.Close(); err != nil && t.closeErr == nil {
				t.closeErr = err
			}
		}
		t.readersWG.Wait()
	})
	return t.closeErr
}
