package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"dvod/internal/topology"
)

// Ledger sync: the anti-entropy exchange of the gossip-replicated reservation
// ledger (internal/ledger, DESIGN.md § "Reservation ledger"). One exchange is
// a request/reply pair of identical shape: each side states the newest
// heartbeat clock it knows per origin (Clocks), the highest reservation row
// sequence it holds per origin (Have), and the rows it believes the other
// side is missing. Both legs are binary frames on a connection whose hello
// granted CapClusterFrames; there is no JSON form.
const (
	// FrameLedgerSync is the binary frame type code. The reply is the same
	// frame type with LedgerSyncFlagReply set.
	FrameLedgerSync byte = 0x03
	// LedgerSyncFlagReply marks a binary ledger-sync frame as the reply leg
	// of an exchange.
	LedgerSyncFlagReply byte = 0x01
)

// LedgerRow is one replicated reservation cell: origin's committed bandwidth
// of one class on one link, versioned by the origin's monotonic sequence.
// A zero rate with zero sessions is a live tombstone — it replicates "origin
// released everything here" so last-writer-wins cannot resurrect stale state.
type LedgerRow struct {
	Link     topology.LinkID `json:"link"`
	Class    string          `json:"class"`
	Origin   topology.NodeID `json:"origin"`
	Seq      uint64          `json:"seq"`
	RateMbps float64         `json:"rateMbps"`
	Sessions int             `json:"sessions"`
}

// LedgerSyncPayload is one leg of an anti-entropy exchange.
type LedgerSyncPayload struct {
	// From is the sending ledger's origin node.
	From topology.NodeID `json:"from"`
	// Clocks is the newest heartbeat clock the sender knows per origin; a
	// receiver renews an origin's lease only when its clock advanced, so
	// relayed stale state cannot keep a dead server's reservations alive.
	Clocks map[topology.NodeID]uint64 `json:"clocks,omitempty"`
	// Have is the highest row sequence the sender holds per origin — the
	// version vector the receiver computes its delta against.
	Have map[topology.NodeID]uint64 `json:"have,omitempty"`
	// Rows is the sender's delta: rows it believes the receiver is missing
	// (the full state when the receiver's vector is unknown or reset).
	Rows []LedgerRow `json:"rows,omitempty"`
}

// ledgerSyncFixed is the fixed-width prefix of a FrameLedgerSync payload:
// fromLen(2) clockCount(4) haveCount(4) rowCount(4); the from name and the
// variable sections follow.
const ledgerSyncFixed = 14

// Per-entry layouts of the variable sections:
// clock/have entry: nameLen(2) name seq(8);
// row entry: linkLen(2) link classLen(1) class originLen(2) origin
// seq(8) rateBits(8) sessions(4).

// appendLedgerVector appends one sorted name→seq section.
func appendLedgerVector(dst []byte, m map[topology.NodeID]uint64) ([]byte, error) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, string(n))
	}
	sort.Strings(names)
	for _, n := range names {
		if len(n) > 0xFFFF {
			return nil, fmt.Errorf("%w: ledger origin name too long", ErrBadFrame)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(n)))
		dst = append(dst, n...)
		dst = binary.BigEndian.AppendUint64(dst, m[topology.NodeID(n)])
	}
	return dst, nil
}

// appendLedgerSyncPayload appends the binary encoding of p to dst. Map
// sections are emitted in sorted order, so equal payloads encode to equal
// bytes.
func appendLedgerSyncPayload(dst []byte, p LedgerSyncPayload) ([]byte, error) {
	if len(p.From) > 0xFFFF {
		return nil, fmt.Errorf("%w: ledger from name too long", ErrBadFrame)
	}
	if len(p.Clocks) > 0xFFFFFF || len(p.Have) > 0xFFFFFF || len(p.Rows) > 0xFFFFFF {
		return nil, fmt.Errorf("%w: ledger sync section too large", ErrBadFrame)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.From)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Clocks)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Have)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Rows)))
	dst = append(dst, p.From...)
	var err error
	if dst, err = appendLedgerVector(dst, p.Clocks); err != nil {
		return nil, err
	}
	if dst, err = appendLedgerVector(dst, p.Have); err != nil {
		return nil, err
	}
	for _, r := range p.Rows {
		if len(r.Link) > 0xFFFF || len(r.Origin) > 0xFFFF {
			return nil, fmt.Errorf("%w: ledger row name too long", ErrBadFrame)
		}
		if len(r.Class) > 0xFF {
			return nil, fmt.Errorf("%w: ledger class name too long", ErrBadFrame)
		}
		if r.Sessions < 0 || int64(r.Sessions) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: ledger row sessions %d", ErrBadFrame, r.Sessions)
		}
		if math.IsNaN(r.RateMbps) || math.IsInf(r.RateMbps, 0) || r.RateMbps < 0 {
			return nil, fmt.Errorf("%w: ledger row rate %g", ErrBadFrame, r.RateMbps)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Link)))
		dst = append(dst, r.Link...)
		dst = append(dst, byte(len(r.Class)))
		dst = append(dst, r.Class...)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Origin)))
		dst = append(dst, r.Origin...)
		dst = binary.BigEndian.AppendUint64(dst, r.Seq)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.RateMbps))
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.Sessions))
	}
	return dst, nil
}

// WriteLedgerSyncFrame sends one sync leg as a binary frame (reply sets
// LedgerSyncFlagReply).
func (c *Conn) WriteLedgerSyncFrame(p LedgerSyncPayload, reply bool) error {
	var flags byte
	if reply {
		flags = LedgerSyncFlagReply
	}
	_, err := c.writeFrame(FrameLedgerSync, flags, func(dst []byte) ([]byte, error) {
		return appendLedgerSyncPayload(dst, p)
	})
	return err
}

// ledgerCursor walks a binary ledger-sync payload with bounds checking.
type ledgerCursor struct {
	b   []byte
	off int
}

func (c *ledgerCursor) take(n int) ([]byte, error) {
	if n < 0 || c.off+n > len(c.b) || c.off+n < c.off {
		return nil, fmt.Errorf("%w: ledger sync truncated at %d", ErrBadFrame, c.off)
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out, nil
}

func (c *ledgerCursor) u16() (int, error) {
	b, err := c.take(2)
	if err != nil {
		return 0, err
	}
	return int(binary.BigEndian.Uint16(b)), nil
}

func (c *ledgerCursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (c *ledgerCursor) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (c *ledgerCursor) name(n int) (string, error) {
	b, err := c.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// decodeLedgerVector parses one name→seq section of count entries.
func (c *ledgerCursor) decodeLedgerVector(count uint32) (map[topology.NodeID]uint64, error) {
	if count == 0 {
		return nil, nil
	}
	// Each entry is at least 10 bytes; reject counts the remaining payload
	// cannot possibly hold before allocating.
	if uint64(count)*10 > uint64(len(c.b)-c.off) {
		return nil, fmt.Errorf("%w: ledger vector count %d overruns payload", ErrBadFrame, count)
	}
	m := make(map[topology.NodeID]uint64, count)
	for range count {
		n, err := c.u16()
		if err != nil {
			return nil, err
		}
		name, err := c.name(n)
		if err != nil {
			return nil, err
		}
		seq, err := c.u64()
		if err != nil {
			return nil, err
		}
		if _, dup := m[topology.NodeID(name)]; dup {
			return nil, fmt.Errorf("%w: duplicate ledger vector origin %q", ErrBadFrame, name)
		}
		m[topology.NodeID(name)] = seq
	}
	return m, nil
}

// DecodeLedgerSyncFrame parses a FrameLedgerSync payload. The result holds no
// reference to f.Payload, so the caller may Release the frame immediately;
// whether the frame is the reply leg is f.Flags & LedgerSyncFlagReply.
func DecodeLedgerSyncFrame(f *Frame) (LedgerSyncPayload, error) {
	if f.Type != FrameLedgerSync {
		return LedgerSyncPayload{}, fmt.Errorf("%w: frame type 0x%02x is not ledger-sync", ErrBadFrame, f.Type)
	}
	cur := &ledgerCursor{b: f.Payload}
	fromLen, err := cur.u16()
	if err != nil {
		return LedgerSyncPayload{}, err
	}
	clockCount, err := cur.u32()
	if err != nil {
		return LedgerSyncPayload{}, err
	}
	haveCount, err := cur.u32()
	if err != nil {
		return LedgerSyncPayload{}, err
	}
	rowCount, err := cur.u32()
	if err != nil {
		return LedgerSyncPayload{}, err
	}
	var p LedgerSyncPayload
	from, err := cur.name(fromLen)
	if err != nil {
		return LedgerSyncPayload{}, err
	}
	p.From = topology.NodeID(from)
	if p.Clocks, err = cur.decodeLedgerVector(clockCount); err != nil {
		return LedgerSyncPayload{}, err
	}
	if p.Have, err = cur.decodeLedgerVector(haveCount); err != nil {
		return LedgerSyncPayload{}, err
	}
	if rowCount > 0 {
		// Each row is at least 25 bytes.
		if uint64(rowCount)*25 > uint64(len(cur.b)-cur.off) {
			return LedgerSyncPayload{}, fmt.Errorf("%w: ledger row count %d overruns payload", ErrBadFrame, rowCount)
		}
		p.Rows = make([]LedgerRow, 0, rowCount)
	}
	for range rowCount {
		var r LedgerRow
		linkLen, err := cur.u16()
		if err != nil {
			return LedgerSyncPayload{}, err
		}
		link, err := cur.name(linkLen)
		if err != nil {
			return LedgerSyncPayload{}, err
		}
		r.Link = topology.LinkID(link)
		classLenB, err := cur.take(1)
		if err != nil {
			return LedgerSyncPayload{}, err
		}
		if r.Class, err = cur.name(int(classLenB[0])); err != nil {
			return LedgerSyncPayload{}, err
		}
		originLen, err := cur.u16()
		if err != nil {
			return LedgerSyncPayload{}, err
		}
		origin, err := cur.name(originLen)
		if err != nil {
			return LedgerSyncPayload{}, err
		}
		r.Origin = topology.NodeID(origin)
		if r.Seq, err = cur.u64(); err != nil {
			return LedgerSyncPayload{}, err
		}
		rateBits, err := cur.u64()
		if err != nil {
			return LedgerSyncPayload{}, err
		}
		r.RateMbps = math.Float64frombits(rateBits)
		if math.IsNaN(r.RateMbps) || math.IsInf(r.RateMbps, 0) || r.RateMbps < 0 {
			return LedgerSyncPayload{}, fmt.Errorf("%w: ledger row rate %g", ErrBadFrame, r.RateMbps)
		}
		sessions, err := cur.u32()
		if err != nil {
			return LedgerSyncPayload{}, err
		}
		if uint64(sessions) > math.MaxInt32 {
			return LedgerSyncPayload{}, fmt.Errorf("%w: ledger row sessions %d", ErrBadFrame, sessions)
		}
		r.Sessions = int(sessions)
		p.Rows = append(p.Rows, r)
	}
	if cur.off != len(cur.b) {
		return LedgerSyncPayload{}, fmt.Errorf("%w: %d trailing bytes after ledger sync", ErrBadFrame, len(cur.b)-cur.off)
	}
	return p, nil
}
