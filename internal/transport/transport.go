// Package transport is the live-plane wire protocol of the VoD service,
// over TCP (the paper uses "TCP for control messages and either TCP or UDP
// for the video data"; we use TCP for both so delivered bytes are
// verifiable). Two framings share one stream:
//
//   - JSON control frames — 4-byte big-endian length, then a JSON Message.
//     Canonical and always available: client requests, replies, errors, and
//     the hello capability exchange all use it.
//   - Binary frames — negotiated at connect time via hello/hello.ok, used for
//     cluster data and every server-to-server exchange (magic | version |
//     type | flags | payload-len | payload; see frame.go and DESIGN.md §
//     "Wire format").
//
// The two are demultiplexed by the first octet: MaxFrameBytes (2^20) keeps
// the top byte of every JSON length prefix at 0x00, while a binary frame
// always opens with 0xD7.
//
// Frame flow of one delivered cluster on the zero-copy path:
//
//	server                                          client
//	──────                                          ──────
//	pool.Get(c) ◄── BufferPool
//	striping.ReadPartInto ──► buf
//	WriteClusterFrame(meta, buf) ──► [hdr|meta][buf] ──► ReadFrameOrMessage
//	pool.Put(buf)                                       │ pool.Get(len)
//	                                                    ▼
//	                                      DecodeClusterFrame ──► verify
//	                                                    │
//	                                            frame.Release ──► pool.Put
//
// The cluster body crosses each hop exactly once (disk→buffer, buffer→
// socket, socket→buffer) with no marshaling and, in steady state, no
// allocation: both ends lease buffers from a size-classed sync.Pool. On a
// JSON client connection the same flow runs with a marshaled header frame
// and a per-cluster allocated body.
package transport

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dvod/internal/topology"
)

// MaxFrameBytes bounds a control frame; oversized frames indicate protocol
// corruption.
const MaxFrameBytes = 1 << 20

// Message types exchanged by the service.
const (
	// TypeError carries ErrorPayload.
	TypeError = "error"
	// TypeTitles requests the server's catalog view (no payload);
	// TypeTitlesOK answers with TitlesPayload.
	TypeTitles   = "titles"
	TypeTitlesOK = "titles.ok"
	// TypeWatch asks the home server to deliver a whole title
	// (WatchPayload); TypeWatchOK answers with WatchOKPayload, then one
	// TypeCluster + raw bytes per cluster, then TypeWatchDone. A server
	// running admission control may instead answer TypeWatchReject with
	// WatchRejectPayload.
	TypeWatch       = "watch"
	TypeWatchOK     = "watch.ok"
	TypeWatchReject = "watch.reject"
	TypeCluster     = "cluster"
	TypeWatchDone   = "watch.done"
	// TypeClusterGet fetches one stored cluster (ClusterGetPayload);
	// TypeClusterOK answers with ClusterPayload + raw bytes, or, on a
	// connection that negotiated binary frames, a FrameCluster (see
	// ReadClusterReply). Used both by peers (mid-stream re-routing, always
	// binary) and directly by tests.
	TypeClusterGet = "cluster.get"
	TypeClusterOK  = "cluster.ok"
	// TypeHolders asks which servers hold a title (HoldersPayload);
	// TypeHoldersOK answers with HoldersOKPayload. Used by clients that
	// fetch clusters from several replicas in parallel.
	TypeHolders   = "holders"
	TypeHoldersOK = "holders.ok"
	// TypePing/TypePong probe liveness (no payloads).
	TypePing = "ping"
	TypePong = "pong"
	// TypeWatchRedirect answers a watch request the serving node decided a
	// better-placed peer should handle (WatchRedirectPayload): the stateless
	// front door of the elastic fleet. Clients follow it transparently with
	// a bounded hop count.
	TypeWatchRedirect = "watch.redirect"
	// TypeMemberPingReq asks a helper node to probe a third member on the
	// sender's behalf (MemberPingReqPayload) — the indirect-probing leg of
	// the failure detector, so one bad link cannot produce a Suspect
	// verdict. TypeMemberPingAck answers with the probe outcome.
	TypeMemberPingReq = "member.ping-req"
	TypeMemberPingAck = "member.ping-ack"
)

// Message is one control frame.
type Message struct {
	Type    string          `json:"type"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Error codes carried by ErrorPayload.Code, letting clients branch on
// machine-readable failure classes without parsing messages.
const (
	// CodeBusy: the server is at its concurrent-session or setup-rate
	// limit; the client should retry later or at another replica.
	CodeBusy = "busy"
)

// ErrServerBusy is the typed error clients observe when a server answers
// with CodeBusy.
var ErrServerBusy = errors.New("server busy")

// ErrorPayload reports a request failure. Code is optional and names a
// machine-readable failure class (see CodeBusy).
type ErrorPayload struct {
	Message string `json:"message"`
	Code    string `json:"code,omitempty"`
}

// TitlesPayload lists catalog titles and whether this server holds each
// locally.
type TitlesPayload struct {
	Titles []TitleInfo `json:"titles"`
}

// TitleInfo is one catalog row.
type TitleInfo struct {
	Name        string  `json:"name"`
	SizeBytes   int64   `json:"sizeBytes"`
	BitrateMbps float64 `json:"bitrateMbps"`
	Resident    bool    `json:"resident"`
}

// WatchPayload asks for a title delivery. StartCluster supports the seek
// operation of interactive VoD: delivery begins at that cluster index
// (0 = from the beginning). Class is the requesting user's service class
// ("premium" | "standard" | "background"); empty means standard, so
// class-unaware clients keep working.
type WatchPayload struct {
	Title        string `json:"title"`
	StartCluster int    `json:"startCluster,omitempty"`
	Class        string `json:"class,omitempty"`
	// Hops counts how many watch.redirect bounces this request has already
	// followed, so servers can cap redirect chains. Zero (and absent on the
	// wire) for a request sent straight at its first server.
	Hops int `json:"hops,omitempty"`
}

// WatchOKPayload opens a delivery stream. When the admission broker degraded
// the session, Degraded is true and DeliveredMbps carries the reduced rate
// the client should pace playout at; otherwise DeliveredMbps equals
// BitrateMbps (or is 0 on class-unaware servers).
type WatchOKPayload struct {
	Title         string  `json:"title"`
	SizeBytes     int64   `json:"sizeBytes"`
	BitrateMbps   float64 `json:"bitrateMbps"`
	ClusterBytes  int64   `json:"clusterBytes"`
	NumClusters   int     `json:"numClusters"`
	Class         string  `json:"class,omitempty"`
	DeliveredMbps float64 `json:"deliveredMbps,omitempty"`
	Degraded      bool    `json:"degraded,omitempty"`
}

// WatchDonePayload closes a delivery stream. It is optional — servers
// predating it send watch.done with no payload, and clients that ignore the
// payload keep working.
type WatchDonePayload struct {
	// Migrations counts the mid-stream reservation migrations the session's
	// admission grant went through: each time a cluster-boundary re-plan
	// moved the route, the old links' reservations were released and the new
	// route's acquired.
	Migrations int `json:"migrations,omitempty"`
}

// WatchRejectPayload is the admission broker's typed refusal of a watch
// request: the class's bandwidth share, queue window, and degradation ladder
// are all exhausted.
type WatchRejectPayload struct {
	Title  string `json:"title"`
	Class  string `json:"class"`
	Reason string `json:"reason"`
	// NeededMbps and FreeMbps mirror the broker's rejection detail.
	NeededMbps float64 `json:"neededMbps,omitempty"`
	FreeMbps   float64 `json:"freeMbps,omitempty"`
}

// WatchRedirectPayload bounces a watch request to a better-placed server:
// the stateless front door's typed reply. Target names the node, Addr is its
// dialable endpoint (so the client needs no address book of its own), and
// Hops is the chain length the client must echo in its next WatchPayload.
type WatchRedirectPayload struct {
	Title  string          `json:"title"`
	Target topology.NodeID `json:"target"`
	Addr   string          `json:"addr"`
	Hops   int             `json:"hops"`
}

// MemberEntry is one member's (incarnation, heartbeat, state) triple in a
// membership view exchange.
type MemberEntry struct {
	Node        topology.NodeID `json:"node"`
	Incarnation uint64          `json:"incarnation"`
	Heartbeat   uint64          `json:"heartbeat"`
	State       string          `json:"state"`
}

// MemberSyncPayload carries one leg of a membership anti-entropy exchange.
// Since the delta-sync protocol, Members usually holds only the rows that
// changed since the receiver's last acknowledged update sequence; a
// first-contact, mismatch, restart, or periodic exchange ships the full view
// with Full set. Legacy peers leave Epoch zero and always ship full views —
// a receiver treats such payloads exactly as before the delta protocol.
type MemberSyncPayload struct {
	From    topology.NodeID `json:"from"`
	Members []MemberEntry   `json:"members"`
	// Epoch is the sender's boot epoch: a restarted tracker announces a new
	// one, which resets the receiver's per-peer ack state (the restarted
	// side lost its acks, so deltas computed against them would be unsound).
	Epoch uint64 `json:"epoch,omitempty"`
	// Seq is the sender's update sequence covered by this payload; the
	// receiver echoes it back as Ack once the rows are merged.
	Seq uint64 `json:"seq,omitempty"`
	// Ack is the highest Seq of the receiver's own state that the sender has
	// merged — the scalar ack the receiver's next delta is computed against.
	Ack uint64 `json:"ack,omitempty"`
	// Full marks a full-view payload (first contact, restart, explicit
	// request, or the periodic anti-entropy safety net).
	Full bool `json:"full,omitempty"`
	// WantFull asks the receiver to make its next payload toward the sender
	// a full view (ack-state mismatch recovery).
	WantFull bool `json:"wantFull,omitempty"`
	// Known is the size of the sender's view; a count disagreement after a
	// delta merge triggers the full-sync fallback in whichever direction is
	// missing rows.
	Known int `json:"known,omitempty"`
}

// MemberPingReqPayload asks the receiving helper to probe Target on the
// sender's behalf: the indirect leg of the SWIM-style failure detector. Addr
// is the target's dialable endpoint as the sender knows it (the helper may
// resolve its own if empty).
type MemberPingReqPayload struct {
	From   topology.NodeID `json:"from"`
	Target topology.NodeID `json:"target"`
	Addr   string          `json:"addr,omitempty"`
}

// MemberPingAckPayload reports an indirect probe's outcome: OK means the
// helper reached Target.
type MemberPingAckPayload struct {
	Target topology.NodeID `json:"target"`
	OK     bool            `json:"ok"`
}

// ClusterPayload announces one cluster's raw bytes, which follow the frame.
type ClusterPayload struct {
	Title  string `json:"title"`
	Index  int    `json:"index"`
	Offset int64  `json:"offset"`
	Length int64  `json:"length"`
	// Source is the video server the cluster was fetched from — the
	// paper's per-cluster optimal server, surfaced so clients can observe
	// mid-stream switches.
	Source topology.NodeID `json:"source"`
}

// HoldersPayload asks which servers hold a title.
type HoldersPayload struct {
	Title string `json:"title"`
}

// HoldersOKPayload lists a title's replica holders plus the delivery
// parameters a parallel fetcher needs.
type HoldersOKPayload struct {
	Title        string            `json:"title"`
	SizeBytes    int64             `json:"sizeBytes"`
	BitrateMbps  float64           `json:"bitrateMbps"`
	ClusterBytes int64             `json:"clusterBytes"`
	NumClusters  int               `json:"numClusters"`
	Holders      []topology.NodeID `json:"holders"`
}

// ClusterGetPayload fetches one stored cluster from a peer.
type ClusterGetPayload struct {
	Title        string `json:"title"`
	Index        int    `json:"index"`
	ClusterBytes int64  `json:"clusterBytes"`
}

// Errors reported by the framing layer.
var (
	ErrFrameTooLarge = errors.New("frame exceeds maximum size")
	ErrBadFrame      = errors.New("malformed frame")
)

// Conn wraps a byte stream with message framing. Writes and reads each take
// an internal lock, so one reader and one writer may operate concurrently,
// but multi-frame exchanges (message + raw body) hold the lock across both
// parts via the *WithBody variants. Callers that split an exchange across
// ReadFrameOrMessage and ReadBody must be the connection's only reader.
type Conn struct {
	rmu sync.Mutex
	wmu sync.Mutex
	rw  io.ReadWriteCloser

	// binary records the hello-negotiated framing for cluster data.
	binary atomic.Bool
	// wscratch holds binary frame headers between writes (guarded by wmu).
	wscratch []byte
	// qbuf accumulates control frames queued by QueueMessage (and the
	// binary queue variants) as already-framed bytes; the next write on the
	// connection — any framing — prepends them in the same writev, so small
	// frames coalesce with the traffic that follows instead of costing a
	// syscall each. Guarded by wmu.
	qbuf []byte
	// wvecBack is the reusable backing array for the writev vector and
	// wvecIO the net.Buffers view WriteTo consumes (WriteTo advances the
	// slice header, so the view is rebuilt from wvecBack on every write and
	// the backing capacity survives). Both guarded by wmu.
	wvecBack [][]byte
	wvecIO   net.Buffers
	// ks holds the platform kernel-send state (Linux: the lazily created
	// splice pipe; elsewhere: empty). Guarded by wmu.
	ks kernelState
}

// NewConn wraps a stream (net.Conn or net.Pipe end).
func NewConn(rw io.ReadWriteCloser) *Conn { return &Conn{rw: rw} }

// Close closes the underlying stream (and the splice pipe, if the kernel
// send path created one).
func (c *Conn) Close() error {
	c.wmu.Lock()
	c.ks.close()
	c.wmu.Unlock()
	return c.rw.Close()
}

// SetReadDeadline forwards to the underlying stream when it supports
// deadlines (net.Conn does; in-memory test pipes may not, in which case this
// is a no-op returning nil).
func (c *Conn) SetReadDeadline(t time.Time) error {
	if d, ok := c.rw.(interface{ SetReadDeadline(time.Time) error }); ok {
		return d.SetReadDeadline(t)
	}
	return nil
}

// SetReadBuffer sizes the kernel receive buffer when the underlying stream
// has one (TCP does; on in-memory test pipes this is a no-op returning nil).
// A fixed buffer also fixes the receive window the far end can fill ahead
// of the reader.
func (c *Conn) SetReadBuffer(bytes int) error {
	if b, ok := c.rw.(interface{ SetReadBuffer(int) error }); ok {
		return b.SetReadBuffer(bytes)
	}
	return nil
}

// SetDeadline bounds both directions when the underlying stream supports
// deadlines. Exchanges that must stay on cadence use this rather than
// SetReadDeadline: a peer that accepted and went silent can stall the write
// leg too (full socket buffers), not just the reply read.
func (c *Conn) SetDeadline(t time.Time) error {
	if d, ok := c.rw.(interface{ SetDeadline(time.Time) error }); ok {
		return d.SetDeadline(t)
	}
	return nil
}

// Encode builds a Message with a JSON payload.
func Encode(msgType string, payload any) (Message, error) {
	if payload == nil {
		return Message{Type: msgType}, nil
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return Message{}, fmt.Errorf("encode %s: %w", msgType, err)
	}
	return Message{Type: msgType, Payload: raw}, nil
}

// Decode unmarshals a message's payload.
func Decode[T any](m Message) (T, error) {
	var out T
	if len(m.Payload) == 0 {
		return out, fmt.Errorf("%s: empty payload", m.Type)
	}
	if err := json.Unmarshal(m.Payload, &out); err != nil {
		return out, fmt.Errorf("decode %s: %w", m.Type, err)
	}
	return out, nil
}

// WriteMessage sends one control frame (plus any frames queued via
// QueueMessage, which precede it in one writev).
func (c *Conn) WriteMessage(m Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeLocked(m, nil)
}

// WriteMessageWithBody sends a control frame immediately followed by raw
// body bytes, atomically with respect to other writers on this Conn. Header,
// frame, and body go out in a single vectored write.
func (c *Conn) WriteMessageWithBody(m Message, body []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeLocked(m, body)
}

// QueueMessage frames a control message into the connection's queue without
// writing it. The queued bytes precede the next write on the connection (any
// framing, including Flush), so a burst of small control frames — or a
// control frame directly followed by bulk data — costs one syscall instead
// of one each. Queued frames are only ever sent in-order with later writes;
// a connection must not sit on queued frames it expects the peer to answer
// without calling Flush.
func (c *Conn) QueueMessage(m Message) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("marshal frame: %w", err)
	}
	if len(data) > MaxFrameBytes {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(data))
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.qbuf = binary.BigEndian.AppendUint32(c.qbuf, uint32(len(data)))
	c.qbuf = append(c.qbuf, data...)
	return nil
}

// Flush writes any queued control frames now. A no-op when nothing is
// queued.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeVectoredLocked()
}

// writeLocked frames and writes one JSON control message and an optional raw
// body in a single vectored write. Callers hold wmu.
func (c *Conn) writeLocked(m Message, body []byte) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("marshal frame: %w", err)
	}
	if len(data) > MaxFrameBytes {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(data))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	return c.writeVectoredLocked(hdr[:], data, body)
}

// writeVectoredLocked writes the queued control frames followed by bufs in
// one vectored write (writev on a TCP connection; sequential writes on
// streams without writev support). Empty buffers are skipped. The queue is
// consumed even on error: a partial writev leaves the stream unframeable, so
// the connection is done for either way. Callers hold wmu.
func (c *Conn) writeVectoredLocked(bufs ...[]byte) error {
	vec := c.wvecBack[:0]
	if len(c.qbuf) > 0 {
		vec = append(vec, c.qbuf)
	}
	for _, b := range bufs {
		if len(b) > 0 {
			vec = append(vec, b)
		}
	}
	c.wvecBack = vec
	if len(vec) == 0 {
		return nil
	}
	c.wvecIO = net.Buffers(vec)
	_, err := c.wvecIO.WriteTo(c.rw)
	c.qbuf = c.qbuf[:0]
	if err != nil {
		return fmt.Errorf("write frames: %w", err)
	}
	return nil
}

// ReadMessage receives one control frame.
func (c *Conn) ReadMessage() (Message, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return c.readLocked()
}

// ReadMessageWithBodyPool receives a control frame and, using bodyLen
// extracted from it by the caller-supplied function, the raw body that
// follows, leased from pool (allocated unpooled when pool is nil): the
// returned frame owns the body bytes until Release (see Frame's ownership
// rule). A nil frame is returned when the error path was taken before the
// body read.
func (c *Conn) ReadMessageWithBodyPool(pool *BufferPool, bodyLen func(Message) (int64, error)) (Message, *Frame, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	m, err := c.readLocked()
	if err != nil {
		return Message{}, nil, err
	}
	n, err := bodyLen(m)
	if err != nil {
		return m, nil, err
	}
	f, err := c.readBodyLocked(n, pool)
	return m, f, err
}

// ReadBody reads n raw body bytes that follow an already-read control frame,
// leased from pool (allocated when pool is nil). The caller must be the
// connection's only reader, since the message/body pair is read under two
// separate lock acquisitions.
func (c *Conn) ReadBody(n int64, pool *BufferPool) (*Frame, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return c.readBodyLocked(n, pool)
}

// readBodyLocked reads n raw bytes into a (possibly pooled) frame buffer.
// Callers hold rmu.
func (c *Conn) readBodyLocked(n int64, pool *BufferPool) (*Frame, error) {
	if n < 0 || n > MaxFrameBytes*64 {
		return nil, fmt.Errorf("%w: body length %d", ErrBadFrame, n)
	}
	f := &Frame{pool: pool}
	f.refs.Store(1)
	if pool != nil {
		f.buf = pool.Get(int(n))
	} else {
		f.buf = make([]byte, n)
	}
	if _, err := io.ReadFull(c.rw, f.buf); err != nil {
		f.Release()
		return nil, fmt.Errorf("read body: %w", err)
	}
	f.Payload = f.buf
	return f, nil
}

func (c *Conn) readLocked() (Message, error) {
	var first [1]byte
	if _, err := io.ReadFull(c.rw, first[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Message{}, io.EOF
		}
		return Message{}, fmt.Errorf("read frame header: %w", err)
	}
	if first[0] == FrameMagic0 {
		return Message{}, fmt.Errorf("%w: binary frame where a control frame was expected", ErrBadFrame)
	}
	return c.readJSONLocked(first[0])
}

// readJSONLocked parses a JSON control frame whose first length octet has
// already been consumed. Callers hold rmu.
func (c *Conn) readJSONLocked(first byte) (Message, error) {
	var rest [3]byte
	if _, err := io.ReadFull(c.rw, rest[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Message{}, io.EOF
		}
		return Message{}, fmt.Errorf("read frame header: %w", err)
	}
	n := uint32(first)<<24 | uint32(rest[0])<<16 | uint32(rest[1])<<8 | uint32(rest[2])
	if n == 0 {
		return Message{}, fmt.Errorf("%w: zero-length frame", ErrBadFrame)
	}
	if n > MaxFrameBytes {
		return Message{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(c.rw, data); err != nil {
		return Message{}, fmt.Errorf("read frame: %w", err)
	}
	var m Message
	if err := json.Unmarshal(data, &m); err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if m.Type == "" {
		return Message{}, fmt.Errorf("%w: missing type", ErrBadFrame)
	}
	return m, nil
}

// WriteError sends an error frame with the given message.
func (c *Conn) WriteError(msg string) error {
	return c.WriteErrorCode(msg, "")
}

// WriteErrorCode sends an error frame with a machine-readable code.
func (c *Conn) WriteErrorCode(msg, code string) error {
	m, err := Encode(TypeError, ErrorPayload{Message: msg, Code: code})
	if err != nil {
		return err
	}
	return c.WriteMessage(m)
}

// AsError converts a TypeError message into a Go error (nil for other
// types). Coded errors wrap their sentinel, so errors.Is(err, ErrServerBusy)
// works across the wire.
func AsError(m Message) error {
	if m.Type != TypeError {
		return nil
	}
	p, err := Decode[ErrorPayload](m)
	if err != nil {
		return fmt.Errorf("remote error (undecodable): %w", err)
	}
	if p.Code == CodeBusy {
		return fmt.Errorf("remote error: %s: %w", p.Message, ErrServerBusy)
	}
	return fmt.Errorf("remote error: %s", p.Message)
}

// Dial connects to a service endpoint.
func Dial(addr string) (*Conn, error) {
	return DialWith(addr, nil)
}

// DialWith connects like Dial but passes the raw TCP stream through wrap
// before framing — the hook fault injectors use to interpose on a
// connection's bytes (cuts, stalls). A nil wrap is the identity.
func DialWith(addr string, wrap func(io.ReadWriteCloser) io.ReadWriteCloser) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	var rw io.ReadWriteCloser = nc
	if wrap != nil {
		rw = wrap(rw)
	}
	return NewConn(rw), nil
}
