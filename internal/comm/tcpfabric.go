package comm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// dialTimeout bounds connection establishment; sendTimeout bounds each
// frame write so a wedged peer cannot hold a sender's mutex forever.
const (
	dialTimeout = 10 * time.Second
	sendTimeout = 30 * time.Second
)

// TCPFabric carries the same message semantics as ChanFabric over real TCP
// connections with length-prefixed binary frames. Every rank owns a
// loopback listener; connections between pairs are dialed lazily and
// cached. It exists to demonstrate that the algorithm runs unchanged on a
// genuine network transport and to exercise the wire protocol.
type TCPFabric struct {
	size  int
	addrs []string
	lns   []net.Listener

	mu     sync.Mutex
	boxes  map[mailKey]chan Message
	conns  map[connKey]*sendConn
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	stats counters
}

type connKey struct{ src, dst int }

type sendConn struct {
	mu sync.Mutex
	w  *bufio.Writer
	c  net.Conn
}

// NewTCPFabric creates a fabric of size loopback listeners and starts their
// accept loops.
func NewTCPFabric(size int) (*TCPFabric, error) {
	if size < 1 {
		return nil, fmt.Errorf("comm: fabric size %d", size)
	}
	f := &TCPFabric{
		size:   size,
		addrs:  make([]string, size),
		lns:    make([]net.Listener, size),
		boxes:  make(map[mailKey]chan Message),
		conns:  make(map[connKey]*sendConn),
		closed: make(chan struct{}),
	}
	for r := 0; r < size; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("comm: listen for rank %d: %w", r, err)
		}
		f.lns[r] = ln
		f.addrs[r] = ln.Addr().String()
		f.wg.Add(1)
		go f.acceptLoop(ln)
	}
	return f, nil
}

// acceptLoop accepts inbound connections for one rank and spawns readers.
func (f *TCPFabric) acceptLoop(ln net.Listener) {
	defer f.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.wg.Add(1)
		go f.readLoop(conn)
	}
}

// readLoop decodes frames from one connection into mailboxes.
func (f *TCPFabric) readLoop(conn net.Conn) {
	defer f.wg.Done()
	defer conn.Close()
	r := bufio.NewReader(conn)
	for {
		//cubelint:ignore deadline fabric reads block until a peer sends; Close tears the conn down to unblock them
		msg, err := readFrame(r)
		if err != nil {
			return
		}
		select {
		case <-f.closed:
			return
		case f.box(mailKey{src: msg.Src, dst: msg.Dst, tag: msg.Tag}) <- msg:
		}
	}
}

// box returns (creating if needed) the mailbox channel for a key.
func (f *TCPFabric) box(k mailKey) chan Message {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.boxes[k]
	if !ok {
		b = make(chan Message, 1)
		f.boxes[k] = b
	}
	return b
}

// dial returns the cached outbound connection from src to dst, dialing on
// first use.
func (f *TCPFabric) dial(src, dst int) (*sendConn, error) {
	key := connKey{src: src, dst: dst}
	f.mu.Lock()
	sc, ok := f.conns[key]
	f.mu.Unlock()
	if ok {
		return sc, nil
	}
	conn, err := net.DialTimeout("tcp", f.addrs[dst], dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("comm: dial %d->%d: %w", src, dst, err)
	}
	sc = &sendConn{w: bufio.NewWriter(conn), c: conn}
	f.mu.Lock()
	if prev, raced := f.conns[key]; raced {
		f.mu.Unlock()
		_ = conn.Close() // lost the race; the cached conn wins
		return prev, nil
	}
	f.conns[key] = sc
	f.mu.Unlock()
	return sc, nil
}

// Endpoint returns the endpoint for a rank.
func (f *TCPFabric) Endpoint(rank int) (Endpoint, error) {
	if err := checkRank(rank, f.size); err != nil {
		return nil, err
	}
	return &tcpEndpoint{fabric: f, rank: rank}, nil
}

// Stats returns a snapshot of traffic counters.
func (f *TCPFabric) Stats() Stats { return f.stats.snapshot() }

// Close shuts listeners and connections down and unblocks pending
// receives. It reports the first teardown errors, joined; callers that
// only want the unblocking side effect may ignore the result.
func (f *TCPFabric) Close() error {
	var errs []error
	f.once.Do(func() {
		close(f.closed)
		for r, ln := range f.lns {
			if ln == nil {
				continue
			}
			if err := ln.Close(); err != nil {
				errs = append(errs, fmt.Errorf("comm: close listener %d: %w", r, err))
			}
		}
		f.mu.Lock()
		for key, sc := range f.conns {
			if err := sc.c.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
				errs = append(errs, fmt.Errorf("comm: close conn %d->%d: %w", key.src, key.dst, err))
			}
		}
		f.mu.Unlock()
	})
	f.wg.Wait()
	return errors.Join(errs...)
}

// tcpEndpoint is one rank's view of a TCPFabric.
type tcpEndpoint struct {
	fabric *TCPFabric
	rank   int
}

// Rank returns the endpoint's rank.
func (e *tcpEndpoint) Rank() int { return e.rank }

// Size returns the fabric's rank count.
func (e *tcpEndpoint) Size() int { return e.fabric.size }

// Send frames and writes the message on the cached connection to dst,
// under a write deadline so a stalled peer cannot wedge the sender.
func (e *tcpEndpoint) Send(dst int, tag Tag, ts float64, data []float64) error {
	if err := checkRank(dst, e.fabric.size); err != nil {
		return err
	}
	if dst == e.rank {
		return fmt.Errorf("comm: rank %d sending to itself", dst)
	}
	select {
	case <-e.fabric.closed:
		return ErrClosed
	default:
	}
	sc, err := e.fabric.dial(e.rank, dst)
	if err != nil {
		return err
	}
	msg := Message{Src: e.rank, Dst: dst, Tag: tag, Time: ts, Data: data}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if err := sc.c.SetWriteDeadline(time.Now().Add(sendTimeout)); err != nil {
		return err
	}
	if err := writeFrame(sc.w, &msg); err != nil {
		return err
	}
	if err := sc.w.Flush(); err != nil {
		return err
	}
	e.fabric.stats.record(len(data))
	return nil
}

// Recv waits for the message from src under tag.
func (e *tcpEndpoint) Recv(src int, tag Tag) (Message, error) {
	if err := checkRank(src, e.fabric.size); err != nil {
		return Message{}, err
	}
	select {
	case <-e.fabric.closed:
		return Message{}, ErrClosed
	case msg := <-e.fabric.box(mailKey{src: src, dst: e.rank, tag: tag}):
		return msg, nil
	}
}

// Frame layout (little endian): src int32, dst int32, tag uint64,
// time float64, count uint32, then count float64 payload words.

// writeFrame encodes one message.
func writeFrame(w io.Writer, msg *Message) error {
	var hdr [28]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(msg.Src))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(msg.Dst))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(msg.Tag))
	binary.LittleEndian.PutUint64(hdr[16:24], math.Float64bits(msg.Time))
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(len(msg.Data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	return WriteFloat64s(w, msg.Data)
}

// readFrame decodes one message.
func readFrame(r io.Reader) (Message, error) {
	var hdr [28]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	count := binary.LittleEndian.Uint32(hdr[24:28])
	const maxElements = 1 << 28 // 2 GiB payload guard
	if count > maxElements {
		return Message{}, fmt.Errorf("comm: frame of %d elements rejected", count)
	}
	msg := Message{
		Src:  int(int32(binary.LittleEndian.Uint32(hdr[0:4]))),
		Dst:  int(int32(binary.LittleEndian.Uint32(hdr[4:8]))),
		Tag:  Tag(binary.LittleEndian.Uint64(hdr[8:16])),
		Time: math.Float64frombits(binary.LittleEndian.Uint64(hdr[16:24])),
		Data: make([]float64, count),
	}
	if err := ReadFloat64s(r, msg.Data); err != nil {
		return Message{}, err
	}
	return msg, nil
}

// floatChunk is how many float64 words WriteFloat64s and ReadFloat64s
// stage at a time, so a payload's byte buffer stays 4 KiB whatever its
// length.
const floatChunk = 512

// WriteFloat64s writes vals as little-endian float64 words: the payload
// encoding of a frame, and of the serving tier's dense group-by replies.
func WriteFloat64s(w io.Writer, vals []float64) error {
	buf := make([]byte, 0, 8*min(len(vals), floatChunk))
	for len(vals) > 0 {
		n := min(len(vals), floatChunk)
		buf = buf[:0]
		for _, v := range vals[:n] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// ReadFloat64s fills dst with len(dst) little-endian float64 words read
// from r, the inverse of WriteFloat64s. A stream shorter than
// 8·len(dst) bytes is an error.
func ReadFloat64s(r io.Reader, dst []float64) error {
	buf := make([]byte, 8*min(len(dst), floatChunk))
	for len(dst) > 0 {
		n := min(len(dst), floatChunk)
		if _, err := io.ReadFull(r, buf[:8*n]); err != nil {
			return err
		}
		for i := range dst[:n] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		dst = dst[n:]
	}
	return nil
}
