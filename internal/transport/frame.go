package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"dvod/internal/topology"
)

// Binary frame constants. The full wire-format specification lives in
// DESIGN.md § "Wire format"; the layout is
//
//	magic(2) | version(1) | type(1) | flags(1) | payload-len(4) | payload
//
// with every multi-byte integer big-endian. The first magic octet (0xD7)
// doubles as the stream demultiplexer: a JSON control frame always begins
// with a 0x00 octet because MaxFrameBytes (2^20) keeps the top byte of its
// length prefix zero, so a receiver can tell the two framings apart from a
// single octet.
const (
	// FrameMagic0 and FrameMagic1 open every binary frame.
	FrameMagic0 = 0xD7
	FrameMagic1 = 0x0D
	// FrameVersion is the highest binary protocol version this build
	// speaks. Version 0 is invalid on the wire.
	FrameVersion = 1
	// FrameHeaderLen is the fixed header size in bytes.
	FrameHeaderLen = 9
	// MaxFramePayload bounds one binary frame's payload (meta + body). It
	// matches the raw-body bound of the JSON framing (64 · MaxFrameBytes).
	MaxFramePayload = MaxFrameBytes * 64
)

// Binary frame type codes. Every server-to-server exchange and every watch
// stream — cluster data, ledger and member sync, merge and prefix
// announcements — is binary-framed; the other type codes live beside their
// codecs. Client requests, their control replies and the hello exchange stay
// on the JSON framing.
const (
	// FrameCluster carries one cluster: a fixed meta header (see
	// appendClusterMeta) followed by the cluster's raw bytes. It is used
	// for both watch-stream clusters and cluster.get responses — the
	// receiver knows which exchange it is in.
	FrameCluster byte = 0x01
)

// CapClusterFrames is the one capability of the hello handshake: a peer that
// grants it speaks every binary frame type of FrameVersion 1.
const CapClusterFrames = "cluster-frames-v1"

// Hello message types: the connect-time capability exchange. A client that
// wants binary framing sends TypeHello as its first request; a server that
// understands it answers TypeHelloOK with the granted version and
// capabilities. A server predating the handshake answers TypeError ("unknown
// message type"), and the connection refuses it (RequireClusterFrames).
const (
	TypeHello   = "hello"
	TypeHelloOK = "hello.ok"
)

// HelloPayload is the client's capability offer.
type HelloPayload struct {
	// Version is the highest binary frame version the client accepts.
	Version int `json:"version"`
	// Caps lists the capability strings the client supports.
	Caps []string `json:"caps,omitempty"`
}

// HelloOKPayload is the server's grant: the version and capability subset
// both sides will use.
type HelloOKPayload struct {
	Version int      `json:"version"`
	Caps    []string `json:"caps,omitempty"`
}

// Errors reported by the binary framing layer (all wrap ErrBadFrame so
// existing callers that branch on it keep working).
var (
	// ErrBadMagic: the second magic octet did not match.
	ErrBadMagic = fmt.Errorf("%w: bad magic", ErrBadFrame)
	// ErrBadVersion: the frame's version octet is zero or above
	// FrameVersion.
	ErrBadVersion = fmt.Errorf("%w: unsupported version", ErrBadFrame)
)

// Errors of the peer hop's cluster exchange.
var (
	// ErrNoReply marks a reply read that failed before the first octet
	// arrived (see ReadClusterReply).
	ErrNoReply = errors.New("no reply")
	// ErrClusterFramesRefused reports a peer whose hello reply did not grant
	// CapClusterFrames (see RequireClusterFrames).
	ErrClusterFramesRefused = errors.New("peer refused " + CapClusterFrames)
)

// Frame is one received binary frame, or one cluster body on its way to a
// writer.
//
// Ownership rule: Payload is leased from the BufferPool that decoded the
// frame and remains valid while the frame holds at least one reference. A
// frame starts with one reference; Retain adds a consumer and every holder
// must call Release exactly once. The buffer returns to its pool only when
// the last reference is dropped, so one disk read can be fanned out to many
// writers (each holding its own reference) without copying, and any number
// of frames may be in flight concurrently without aliasing a shared read
// buffer. Callers that keep bytes past their Release must copy them first;
// after the final Release, Payload is nil and the backing array may be
// reused by a later read. Releasing more times than the frame was retained
// panics — a double release would hand the same buffer to two readers.
type Frame struct {
	Version byte
	Type    byte
	Flags   byte
	Payload []byte

	refs atomic.Int32

	// The body: kind says where its size bytes live (see bodyKind), and
	// each operation on it is one switch on kind.
	kind bodyKind
	size int64
	file *os.File // kindFile: the body is [off, off+size) of file
	off  int64
	pipe *splicePipe // kindPipe: the pipe holds the body
	// What the final Release gives back: Payload's lease to pool
	// (kindBytes; nil means unpooled) or the file's pin, by running done
	// (kindFile). A pipe goes back to its own pool.
	pool *BufferPool
	done func()

	// recycle marks a frame of ReadClusterReply's, which goes back to
	// replyFrames on its final Release.
	recycle bool
}

// bodyKind names where a frame's body lives.
type bodyKind uint8

const (
	// kindBytes: Payload, leased from pool.
	kindBytes bodyKind = iota
	// kindFile: a range of a file, typically a pinned disk.FileRef, which a
	// writer hands to sendfile(2) without a userspace copy. Holders use
	// only positioned I/O on the file, never Seek: the descriptor is shared
	// with every concurrent reader of the block.
	kindFile
	// kindPipe: a kernel pipe (ReadClusterReply with a PipePool), which a
	// writer empties into a socket by splice(2). A pipe can be read only
	// once, so the frame has exactly one holder: Retain panics, and a body
	// that must be shared is moved to a pooled buffer first (Materialize).
	kindPipe
)

// replyFrames recycles the frames ReadClusterReply returns, so the
// steady-state reply read allocates nothing.
var replyFrames = sync.Pool{New: func() any { return new(Frame) }}

// NewLeasedFrame wraps a buffer leased from pool (Get) in a frame with one
// reference, so locally produced data — a disk read — flows through the same
// retain/release fan-out path as frames decoded off the wire. A nil pool
// means buf was allocated unpooled and the final Release just drops it.
func NewLeasedFrame(pool *BufferPool, buf []byte) *Frame {
	f := &Frame{}
	f.refs.Store(1)
	f.setBytes(pool, buf)
	return f
}

// NewFileFrame wraps a file-backed body — size bytes at offset off of file,
// typically a pinned disk.FileRef — in a frame with one reference. The frame
// flows through the same Retain/Release fan-out as byte-backed frames
// (Payload stays nil), and done — which may be nil — runs once when the last
// reference is released, releasing the pin.
func NewFileFrame(file *os.File, off, size int64, done func()) *Frame {
	f := &Frame{Type: FrameCluster, Version: FrameVersion, kind: kindFile, size: size, file: file, off: off, done: done}
	f.refs.Store(1)
	return f
}

// setBytes makes buf, leased from pool (nil: allocated unpooled), the
// frame's body, and returns it.
func (f *Frame) setBytes(pool *BufferPool, buf []byte) []byte {
	f.kind, f.size, f.Payload, f.pool = kindBytes, int64(len(buf)), buf, pool
	return buf
}

// leaseBuf leases n bytes from pool, or allocates them when pool is nil.
func leaseBuf(pool *BufferPool, n int64) []byte {
	if pool != nil {
		return pool.Get(int(n))
	}
	return make([]byte, n)
}

// BodyLen returns the frame's body length in bytes for any backing.
func (f *Frame) BodyLen() int64 {
	if f == nil {
		return 0
	}
	return f.size
}

// Materialize moves a pipe-backed body into a buffer leased from pool, in
// place: the frame becomes byte-backed and may then be retained and fanned
// out. The emptied pipe goes back to its pool. Frames with any other backing
// are left as they are: a file frame may be shared by holders reading it.
func (f *Frame) Materialize(pool *BufferPool) error {
	if f == nil || f.kind != kindPipe {
		return nil
	}
	p := f.pipe
	if p.held != f.size {
		return errPipeShort
	}
	buf := leaseBuf(pool, f.size)
	if err := p.drain(buf); err != nil {
		if pool != nil {
			pool.Put(buf)
		}
		return fmt.Errorf("drain pipe body: %w", err)
	}
	f.pipe = nil
	p.pool.put(p)
	f.setBytes(pool, buf)
	return nil
}

// BodyBytes materializes the frame's body as a byte slice: byte-backed
// frames return Payload directly (valid until the frame's Release, free() is
// a no-op); pipe-backed frames are drained into a pooled buffer first
// (Materialize), after which the same holds; file-backed frames lease a
// buffer from pool, pread the body into it, and return it with a free() that
// puts the lease back. Callers must run free() once they are done with the
// bytes — it is non-nil even on error. This is the userspace fallback the
// JSON cluster.ok and streams without a kernel path use for kernel bodies.
func (f *Frame) BodyBytes(pool *BufferPool) (body []byte, free func(), err error) {
	free = func() {}
	if f == nil {
		return nil, free, errors.New("transport: BodyBytes on nil frame")
	}
	switch f.kind {
	case kindPipe:
		if err := f.Materialize(pool); err != nil {
			return nil, free, err
		}
	case kindFile:
		buf := leaseBuf(pool, f.size)
		if pool != nil {
			free = func() { pool.Put(buf) }
		}
		if _, err := f.file.ReadAt(buf, f.off); err != nil {
			free()
			return nil, func() {}, fmt.Errorf("read file-backed body: %w", err)
		}
		return buf, free, nil
	}
	return f.Payload, free, nil
}

// Retain adds one reference to the frame and returns it. Each Retain must be
// balanced by exactly one Release. Retaining a fully released frame panics:
// its buffer may already back another read.
func (f *Frame) Retain() *Frame {
	if f == nil {
		return nil
	}
	if f.kind == kindPipe {
		panic("transport: Retain on a pipe-backed frame (Materialize it first)")
	}
	if f.refs.Add(1) <= 1 {
		panic("transport: Retain on a released frame")
	}
	return f
}

// Release drops one reference; the body's backing is given back when the
// last reference is dropped: the payload buffer to its pool, the file's pin
// by running done, the pipe to its pool (closed if it still holds bytes).
// Releasing a frame more times than it was retained panics — the buffer
// could otherwise be recycled while another holder is still reading it.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	switch n := f.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("transport: Frame double release")
	}
	switch f.kind {
	case kindBytes:
		if f.pool != nil {
			f.pool.Put(f.Payload)
		}
	case kindFile:
		if f.done != nil {
			f.done()
		}
	case kindPipe:
		f.pipe.pool.put(f.pipe)
	}
	f.kind, f.size, f.Payload, f.pool = kindBytes, 0, nil, nil
	f.file, f.pipe, f.done = nil, nil, nil
	if f.recycle {
		replyFrames.Put(f)
	}
}

// Refs reports the frame's current reference count (for tests).
func (f *Frame) Refs() int { return int(f.refs.Load()) }

// clusterMetaFixed is the fixed-width prefix of a FrameCluster payload:
// index(4) offset(8) length(8) titleLen(2) srcLen(2).
const clusterMetaFixed = 24

// appendClusterMeta appends the binary cluster meta header to dst.
func appendClusterMeta(dst []byte, p ClusterPayload) ([]byte, error) {
	if p.Index < 0 || int64(uint32(p.Index)) != int64(p.Index) {
		return nil, fmt.Errorf("%w: cluster index %d", ErrBadFrame, p.Index)
	}
	if p.Offset < 0 || p.Length < 0 {
		return nil, fmt.Errorf("%w: negative offset/length", ErrBadFrame)
	}
	if len(p.Title) > 0xFFFF || len(p.Source) > 0xFFFF {
		return nil, fmt.Errorf("%w: name too long", ErrBadFrame)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.Index))
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.Offset))
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.Length))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Title)))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Source)))
	dst = append(dst, p.Title...)
	dst = append(dst, p.Source...)
	return dst, nil
}

// clusterMeta is the fixed-width part of a cluster meta header.
type clusterMeta struct {
	index            uint32
	offset, length   uint64
	titleLen, srcLen int
}

// parseClusterMeta parses the clusterMetaFixed bytes that open b.
func parseClusterMeta(b []byte) clusterMeta {
	return clusterMeta{
		index:    binary.BigEndian.Uint32(b[0:4]),
		offset:   binary.BigEndian.Uint64(b[4:12]),
		length:   binary.BigEndian.Uint64(b[12:20]),
		titleLen: int(binary.BigEndian.Uint16(b[20:22])),
		srcLen:   int(binary.BigEndian.Uint16(b[22:24])),
	}
}

// metaLen is the size of the whole meta header, names included.
func (m clusterMeta) metaLen() int { return clusterMetaFixed + m.titleLen + m.srcLen }

// check validates the meta against the body length the frame carries.
func (m clusterMeta) check(bodyLen int64) error {
	if m.length != uint64(bodyLen) {
		return fmt.Errorf("%w: length field %d, body %d bytes", ErrBadFrame, m.length, bodyLen)
	}
	if m.offset > uint64(1)<<62 {
		return fmt.Errorf("%w: offset overflow", ErrBadFrame)
	}
	return nil
}

// payload builds the ClusterPayload of a checked meta with its names.
func (m clusterMeta) payload(title, source string) ClusterPayload {
	return ClusterPayload{
		Title:  title,
		Index:  int(m.index),
		Offset: int64(m.offset),
		Length: int64(m.length),
		Source: topology.NodeID(source),
	}
}

// buildClusterHeaderLocked assembles the binary frame header plus cluster
// meta for a body of bodyLen bytes into the connection's scratch buffer
// (reused across calls, so the steady state allocates nothing). Callers hold
// wmu and must finish with the returned slice before the next write.
func (c *Conn) buildClusterHeaderLocked(p ClusterPayload, bodyLen int64) ([]byte, error) {
	scratch := append(c.wscratch[:0],
		FrameMagic0, FrameMagic1, FrameVersion, FrameCluster, 0, // flags
		0, 0, 0, 0) // payload-len placeholder
	scratch, err := appendClusterMeta(scratch, p)
	if err != nil {
		return nil, err
	}
	payloadLen := int64(len(scratch)-FrameHeaderLen) + bodyLen
	if payloadLen > MaxFramePayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, payloadLen)
	}
	binary.BigEndian.PutUint32(scratch[5:9], uint32(payloadLen))
	c.wscratch = scratch[:0]
	return scratch, nil
}

// writeFrame assembles one binary frame of type typ in the connection's
// scratch buffer (reused across calls) — the header, then the payload
// appendPayload appends — sends it, and returns the frame's size in bytes.
func (c *Conn) writeFrame(typ, flags byte, appendPayload func([]byte) ([]byte, error)) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	scratch, err := appendPayload(append(c.wscratch[:0],
		FrameMagic0, FrameMagic1, FrameVersion, typ, flags,
		0, 0, 0, 0)) // payload-len placeholder
	if err != nil {
		return 0, err
	}
	payloadLen := len(scratch) - FrameHeaderLen
	if payloadLen > MaxFramePayload {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, payloadLen)
	}
	binary.BigEndian.PutUint32(scratch[5:9], uint32(payloadLen))
	c.wscratch = scratch[:0]
	if err := c.writeVectoredLocked(scratch); err != nil {
		return 0, fmt.Errorf("write frame 0x%02x: %w", typ, err)
	}
	return len(scratch), nil
}

// WriteClusterFrame sends one cluster as a binary frame: header and meta are
// assembled in a per-connection scratch buffer (reused across calls, so the
// steady state allocates nothing) and the body goes out straight from the
// caller's buffer in the same vectored write — no marshal, no copy, one
// syscall. p.Length must equal len(body).
func (c *Conn) WriteClusterFrame(p ClusterPayload, body []byte) error {
	if p.Length != int64(len(body)) {
		return fmt.Errorf("%w: payload length %d, body %d bytes", ErrBadFrame, p.Length, len(body))
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	scratch, err := c.buildClusterHeaderLocked(p, int64(len(body)))
	if err != nil {
		return err
	}
	if err := c.writeVectoredLocked(scratch, body); err != nil {
		return fmt.Errorf("write cluster frame: %w", err)
	}
	return nil
}

// WriteClusterBody sends one cluster on the connection's negotiated framing
// with the body taken from a frame, choosing the cheapest path available:
//
//   - binary framing + file-backed body: the frame header (and any queued
//     control frames) go out in one writev, then the body travels file→socket
//     inside the kernel via sendfile(2) and never enters Go userspace.
//     Returns kernel = true.
//   - binary framing + pipe-backed body: the same, with the body moving
//     pipe→socket by splice(2). Returns kernel = true.
//   - binary framing + byte-backed body, or a kernel body the platform or
//     stream cannot kernel-send (non-TCP test pipes, !linux builds): the
//     pooled-buffer copy path of WriteClusterFrame. Returns kernel = false.
//   - JSON framing, which only a hello-less cluster.get reaches: a control
//     frame of msgType followed by the raw body, exactly as
//     WriteMessageWithBody sends it. Returns kernel = false.
//
// The fallback paths produce byte-identical wire output to the kernel paths.
// pool supplies the bounce buffer when a kernel body must be copied after
// all; the caller keeps its reference on body and still must Release it. An
// error on a kernel path after the header went out leaves the stream
// unframeable, like any partial write does.
func (c *Conn) WriteClusterBody(pool *BufferPool, msgType string, p ClusterPayload, body *Frame) (kernel bool, err error) {
	size := body.BodyLen()
	if p.Length != size {
		return false, fmt.Errorf("%w: payload length %d, body %d bytes", ErrBadFrame, p.Length, size)
	}
	if !c.BinaryFrames() {
		m, err := Encode(msgType, p)
		if err != nil {
			return false, err
		}
		data, free, err := body.BodyBytes(pool)
		if err != nil {
			return false, err
		}
		defer free()
		return false, c.WriteMessageWithBody(m, data)
	}
	if body.kind == kindBytes {
		return false, c.WriteClusterFrame(p, body.Payload)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	scratch, err := c.buildClusterHeaderLocked(p, size)
	if err != nil {
		return false, err
	}
	if err := c.writeVectoredLocked(scratch); err != nil {
		return false, fmt.Errorf("write cluster frame: %w", err)
	}
	if kernel, err = c.kernelSendLocked(body); err != nil {
		return kernel, fmt.Errorf("write cluster body: %w", err)
	}
	if kernel {
		return true, nil
	}
	// The stream cannot kernel-send (not a TCP socket, or a !linux build):
	// bounce the body through a pooled buffer. The header is already on the
	// wire, so only the raw bytes follow — identical wire output.
	data, free, err := body.BodyBytes(pool)
	if err != nil {
		return false, err
	}
	defer free()
	if err := c.writeVectoredLocked(data); err != nil {
		return false, fmt.Errorf("write cluster body: %w", err)
	}
	return false, nil
}

// ReadFrameOrMessage reads the next item on the stream, demultiplexing on
// the first octet: 0xD7 opens a binary frame (frame != nil, zero Message),
// anything else opens a JSON control frame (frame == nil). The binary
// payload is leased from pool (allocated unpooled when pool is nil); the
// caller must Release the returned frame.
func (c *Conn) ReadFrameOrMessage(pool *BufferPool) (Message, *Frame, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	first := c.rbuf(1)
	if err := c.readFull(first); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Message{}, nil, io.EOF
		}
		return Message{}, nil, fmt.Errorf("read frame header: %w", err)
	}
	if first[0] == FrameMagic0 {
		f, err := c.readFrameLocked(pool)
		return Message{}, f, err
	}
	m, err := c.readJSONLocked(first[0])
	return m, nil, err
}

// ReadClusterReply reads the reply to a cluster.get on a connection that
// negotiated binary frames: a FrameCluster, returned as a body-only frame,
// or the peer's error frame, returned as its error. Any other reply is
// ErrBadFrame. The reply is read whole before ReadClusterReply returns.
//
// The body lands in a pipe from pipes when the stream is a raw socket and
// the pool has one to give: spliced there, it never enters Go memory, and
// WriteClusterBody splices it on to the client. Otherwise — pipes is nil or
// exhausted, the stream is not a socket (a test pipe), a !linux build — or
// when the body overflows its pipe, the body is read into a buffer leased
// from pool (allocated unpooled when pool is nil).
// The frame comes from a recycled set and goes back on its final Release.
//
// A read that fails before the reply's first octet arrived wraps ErrNoReply:
// the peer never started an answer, which on a pooled connection means the
// connection was already dead. Every later failure — a reply broken
// mid-header or mid-body, a refusal — means the peer did answer.
func (c *Conn) ReadClusterReply(pool *BufferPool, pipes *PipePool) (ClusterPayload, *Frame, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	first := c.rbuf(1)
	if err := c.readFull(first); err != nil {
		return ClusterPayload{}, nil, fmt.Errorf("%w: %w", ErrNoReply, err)
	}
	if first[0] != FrameMagic0 {
		m, err := c.readJSONLocked(first[0])
		if err == nil {
			if err = AsError(m); err == nil {
				err = fmt.Errorf("%w: %q where a cluster frame was expected", ErrBadFrame, m.Type)
			}
		}
		return ClusterPayload{}, nil, err
	}
	version, typ, flags, n, err := c.readFrameHeaderLocked()
	if err != nil {
		return ClusterPayload{}, nil, err
	}
	if typ != FrameCluster {
		return ClusterPayload{}, nil, fmt.Errorf("%w: frame type 0x%02x is not a cluster", ErrBadFrame, typ)
	}
	return c.readClusterLocked(version, flags, n, pool, pipes)
}

// ReadClusterOrMessage reads the next item of a watch stream, as
// ReadFrameOrMessage does, except that a FrameCluster comes back the way
// ReadClusterReply returns one: its meta decoded and the frame body-only,
// leased at the body's size from pool. A relay re-serves such frames without
// copying them. Other binary frames come back whole with a zero
// ClusterPayload.
func (c *Conn) ReadClusterOrMessage(pool *BufferPool) (Message, ClusterPayload, *Frame, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	first := c.rbuf(1)
	if err := c.readFull(first); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Message{}, ClusterPayload{}, nil, io.EOF
		}
		return Message{}, ClusterPayload{}, nil, fmt.Errorf("read frame header: %w", err)
	}
	if first[0] != FrameMagic0 {
		m, err := c.readJSONLocked(first[0])
		return m, ClusterPayload{}, nil, err
	}
	version, typ, flags, n, err := c.readFrameHeaderLocked()
	if err != nil {
		return Message{}, ClusterPayload{}, nil, err
	}
	if typ != FrameCluster {
		f, err := c.readPayloadLocked(version, typ, flags, n, pool)
		return Message{}, ClusterPayload{}, f, err
	}
	p, f, err := c.readClusterLocked(version, flags, n, pool, nil)
	return Message{}, p, f, err
}

// readClusterLocked reads the n-byte payload of a FrameCluster whose header
// has been read: the meta into the read scratch, the body by
// readReplyBodyLocked. Callers hold rmu.
func (c *Conn) readClusterLocked(version, flags byte, n uint32, pool *BufferPool, pipes *PipePool) (ClusterPayload, *Frame, error) {
	if n < clusterMetaFixed {
		return ClusterPayload{}, nil, fmt.Errorf("%w: cluster meta truncated (%d bytes)", ErrBadFrame, n)
	}
	fixed := c.rbuf(clusterMetaFixed)
	if err := c.readFull(fixed); err != nil {
		return ClusterPayload{}, nil, fmt.Errorf("%w: truncated cluster meta: %v", ErrBadFrame, err)
	}
	m := parseClusterMeta(fixed)
	if int(n) < m.metaLen() {
		return ClusterPayload{}, nil, fmt.Errorf("%w: cluster names truncated", ErrBadFrame)
	}
	bodyLen := int64(n) - int64(m.metaLen())
	if err := m.check(bodyLen); err != nil {
		return ClusterPayload{}, nil, err
	}
	names := c.rbuf(m.titleLen + m.srcLen)
	if err := c.readFull(names); err != nil {
		return ClusterPayload{}, nil, fmt.Errorf("%w: truncated cluster names: %v", ErrBadFrame, err)
	}
	p := m.payload(intern(&c.rtitle, names[:m.titleLen]), intern(&c.rsource, names[m.titleLen:]))
	f := replyFrames.Get().(*Frame)
	f.Version, f.Type, f.Flags, f.recycle = version, FrameCluster, flags, true
	f.refs.Store(1)
	if err := c.readReplyBodyLocked(f, pool, pipes, bodyLen); err != nil {
		f.Release()
		return ClusterPayload{}, nil, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
	}
	return p, f, nil
}

// readReplyBodyLocked reads a reply's size body bytes into f: spliced into a
// pipe when the stream and pipes allow, else into a leased buffer. A body
// that overflows its pipe is drained from the pipe into the leased buffer
// and finished from the stream. Callers hold rmu.
func (c *Conn) readReplyBodyLocked(f *Frame, pool *BufferPool, pipes *PipePool, size int64) error {
	var p *splicePipe
	if size > 0 && c.spliceable() {
		p = pipes.get()
	}
	var got int64
	if p != nil {
		var ok bool
		var err error
		got, ok, err = c.spliceRecvLocked(p, size)
		switch {
		case err != nil:
			p.pool.put(p)
			return err
		case !ok:
			p.pool.put(p)
			p = nil
		case got == size:
			f.kind, f.size, f.pipe = kindPipe, size, p
			return nil
		}
	}
	buf := f.setBytes(pool, leaseBuf(pool, size))
	if p != nil {
		p.pool.overflows.Inc()
		err := p.drain(buf[:got])
		p.pool.put(p)
		if err != nil {
			return err
		}
	}
	return c.readFull(buf[got:])
}

// intern returns b as a string, reusing *last when it holds the same bytes:
// consecutive replies on one connection name the same title and source, so
// the steady state allocates no strings.
func intern(last *string, b []byte) string {
	if string(b) != *last {
		*last = string(b)
	}
	return *last
}

// rbuf returns n bytes of the connection's read scratch (guarded by rmu),
// valid until the next rbuf call.
func (c *Conn) rbuf(n int) []byte {
	if cap(c.rscratch) < n {
		c.rscratch = make([]byte, max(n, clusterMetaFixed))
	}
	return c.rscratch[:n]
}

// ReadReplyFrame reads the reply leg of a server-to-server sync exchange: a
// binary frame of type want, or the peer's error frame returned as its error.
// Any other reply is ErrBadFrame. The payload is allocated unpooled; the
// caller must Release the returned frame.
func (c *Conn) ReadReplyFrame(want byte) (*Frame, error) {
	m, f, err := c.ReadFrameOrMessage(nil)
	if err != nil {
		return nil, err
	}
	if f == nil {
		if err := AsError(m); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %q where frame 0x%02x was expected", ErrBadFrame, m.Type, want)
	}
	if f.Type != want {
		f.Release()
		return nil, fmt.Errorf("%w: frame 0x%02x where 0x%02x was expected", ErrBadFrame, f.Type, want)
	}
	return f, nil
}

// readFrameHeaderLocked parses the rest of a binary frame header whose
// first magic octet has already been consumed, returning the payload length.
// Callers hold rmu.
func (c *Conn) readFrameHeaderLocked() (version, typ, flags byte, n uint32, err error) {
	hdr := c.rbuf(FrameHeaderLen - 1)
	if err := c.readFull(hdr); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("%w: truncated header: %v", ErrBadFrame, err)
	}
	if hdr[0] != FrameMagic1 {
		return 0, 0, 0, 0, fmt.Errorf("%w: 0x%02x", ErrBadMagic, hdr[0])
	}
	version = hdr[1]
	if version == 0 || version > FrameVersion {
		return 0, 0, 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	n = binary.BigEndian.Uint32(hdr[4:8])
	if n == 0 {
		return 0, 0, 0, 0, fmt.Errorf("%w: zero-length frame payload", ErrBadFrame)
	}
	if n > MaxFramePayload {
		return 0, 0, 0, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	return version, hdr[2], hdr[3], n, nil
}

// readFrameLocked parses a binary frame whose first magic octet has already
// been consumed. Callers hold rmu.
func (c *Conn) readFrameLocked(pool *BufferPool) (*Frame, error) {
	version, typ, flags, n, err := c.readFrameHeaderLocked()
	if err != nil {
		return nil, err
	}
	return c.readPayloadLocked(version, typ, flags, n, pool)
}

// readPayloadLocked reads the n-byte payload of a binary frame whose header
// has been read into a frame leased from pool. Callers hold rmu.
func (c *Conn) readPayloadLocked(version, typ, flags byte, n uint32, pool *BufferPool) (*Frame, error) {
	f, err := c.readBodyLocked(int64(n), pool)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
	}
	f.Version, f.Type, f.Flags = version, typ, flags
	return f, nil
}

// EnableBinaryFrames marks the connection as having negotiated binary
// cluster framing (both sides call it after a successful hello exchange).
func (c *Conn) EnableBinaryFrames() { c.binary.Store(true) }

// BinaryFrames reports whether binary cluster framing was negotiated.
func (c *Conn) BinaryFrames() bool { return c.binary.Load() }

// Negotiate performs the client side of the hello handshake: it offers
// FrameVersion with CapClusterFrames and interprets the reply. It returns
// true when the server granted binary framing (the connection is marked
// accordingly). A TypeError reply — what a pre-handshake server sends for the
// unknown "hello" type — returns false with a nil error, and the connection
// stays usable for JSON client traffic.
func (c *Conn) Negotiate() (bool, error) {
	req, err := Encode(TypeHello, HelloPayload{
		Version: FrameVersion,
		Caps:    []string{CapClusterFrames},
	})
	if err != nil {
		return false, err
	}
	if err := c.WriteMessage(req); err != nil {
		return false, err
	}
	m, err := c.ReadMessage()
	if err != nil {
		return false, err
	}
	switch m.Type {
	case TypeHelloOK:
		ok, derr := Decode[HelloOKPayload](m)
		if derr != nil {
			return false, derr
		}
		if ok.Version < 1 || ok.Version > FrameVersion {
			return false, fmt.Errorf("hello: server granted unusable version %d", ok.Version)
		}
		for _, cap := range ok.Caps {
			if cap == CapClusterFrames {
				c.EnableBinaryFrames()
				return true, nil
			}
		}
		return false, nil
	case TypeError:
		return false, nil
	default:
		return false, fmt.Errorf("hello: unexpected reply %q", m.Type)
	}
}

// RequireClusterFrames runs Negotiate on a connection that speaks only binary
// frames — every server-to-server connection and every player's: a peer that
// answers the hello without granting CapClusterFrames fails with
// ErrClusterFramesRefused.
func (c *Conn) RequireClusterFrames() error {
	granted, err := c.Negotiate()
	if err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	if !granted {
		return ErrClusterFramesRefused
	}
	return nil
}

// AcceptHello performs the server side of the handshake for one received
// hello message: it grants CapClusterFrames when offered (any other offered
// capability is ignored), enables binary framing on the connection when
// granted, and writes the hello.ok reply.
func (c *Conn) AcceptHello(m Message) error {
	offer, err := Decode[HelloPayload](m)
	if err != nil {
		return err
	}
	version := offer.Version
	if version > FrameVersion {
		version = FrameVersion
	}
	var granted []string
	if version >= 1 {
		for _, cap := range offer.Caps {
			if cap == CapClusterFrames {
				granted = []string{CapClusterFrames}
				c.EnableBinaryFrames()
				break
			}
		}
	}
	resp, err := Encode(TypeHelloOK, HelloOKPayload{Version: version, Caps: granted})
	if err != nil {
		return err
	}
	return c.WriteMessage(resp)
}
