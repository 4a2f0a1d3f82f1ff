package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"dvod/internal/topology"
)

// Member sync: the anti-entropy exchange of the gossip membership layer
// (internal/membership, DESIGN.md § "Membership & redirect"). One exchange is
// a request/reply pair of identical shape carrying (incarnation, heartbeat,
// state) rows plus the delta-sync bookkeeping scalars (epoch, seq, ack,
// known). Like ledger sync, both legs are binary frames on a connection whose
// hello granted CapClusterFrames; there is no JSON form.
const (
	// FrameMemberSync is the binary frame type code. The reply is the same
	// frame type with MemberSyncFlagReply set.
	FrameMemberSync byte = 0x04
	// MemberSyncFlagReply marks a binary member-sync frame as the reply leg
	// of an exchange.
	MemberSyncFlagReply byte = 0x01
	// MemberSyncFlagFull marks a full-view payload (MemberSyncPayload.Full).
	MemberSyncFlagFull byte = 0x02
	// MemberSyncFlagWantFull carries MemberSyncPayload.WantFull.
	MemberSyncFlagWantFull byte = 0x04
)

// memberSyncFixed is the fixed-width prefix of a FrameMemberSync payload:
// fromLen(2) memberCount(4) epoch(8) seq(8) ack(8) known(4); the from name
// and the member entries follow.
const memberSyncFixed = 34

// Per-entry layout: nodeLen(2) node incarnation(8) heartbeat(8) state(1).

// memberStateByte maps a wire state string to its binary code. Unknown
// strings encode as Suspect, the same safe degradation membership.parseState
// applies, so an unknown state is never counted as healthy.
func memberStateByte(s string) byte {
	switch s {
	case "alive":
		return 0
	case "draining":
		return 1
	case "suspect":
		return 2
	case "failed":
		return 3
	case "left":
		return 4
	default:
		return 2
	}
}

// memberStateName is the inverse of memberStateByte for the five known
// codes; anything else is rejected by the decoder.
func memberStateName(b byte) (string, bool) {
	switch b {
	case 0:
		return "alive", true
	case 1:
		return "draining", true
	case 2:
		return "suspect", true
	case 3:
		return "failed", true
	case 4:
		return "left", true
	default:
		return "", false
	}
}

// AppendMemberSyncPayload appends the binary encoding of p to dst. Entries
// are emitted in node-sorted order, so equal payloads encode to equal bytes.
// Flag-carried fields (Full, WantFull, the reply bit) are not part of the
// payload; WriteMemberSyncFrame folds them into the frame header.
func AppendMemberSyncPayload(dst []byte, p MemberSyncPayload) ([]byte, error) {
	if len(p.From) > 0xFFFF {
		return nil, fmt.Errorf("%w: member sync from name too long", ErrBadFrame)
	}
	if len(p.Members) > 0xFFFFFF {
		return nil, fmt.Errorf("%w: member sync section too large", ErrBadFrame)
	}
	if p.Known < 0 || int64(p.Known) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: member sync known %d", ErrBadFrame, p.Known)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.From)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Members)))
	dst = binary.BigEndian.AppendUint64(dst, p.Epoch)
	dst = binary.BigEndian.AppendUint64(dst, p.Seq)
	dst = binary.BigEndian.AppendUint64(dst, p.Ack)
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.Known))
	dst = append(dst, p.From...)
	entries := p.Members
	if !sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].Node < entries[j].Node }) {
		entries = append([]MemberEntry(nil), entries...)
		sort.Slice(entries, func(i, j int) bool { return entries[i].Node < entries[j].Node })
	}
	for _, e := range entries {
		if len(e.Node) > 0xFFFF {
			return nil, fmt.Errorf("%w: member node name too long", ErrBadFrame)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Node)))
		dst = append(dst, e.Node...)
		dst = binary.BigEndian.AppendUint64(dst, e.Incarnation)
		dst = binary.BigEndian.AppendUint64(dst, e.Heartbeat)
		dst = append(dst, memberStateByte(e.State))
	}
	return dst, nil
}

// MemberSyncFlags folds a payload's boolean fields (plus the reply bit) into
// a frame flag byte.
func MemberSyncFlags(p MemberSyncPayload, reply bool) byte {
	var flags byte
	if reply {
		flags |= MemberSyncFlagReply
	}
	if p.Full {
		flags |= MemberSyncFlagFull
	}
	if p.WantFull {
		flags |= MemberSyncFlagWantFull
	}
	return flags
}

// WriteMemberSyncFrame sends one sync leg as a binary frame (reply sets
// MemberSyncFlagReply; Full and WantFull travel as flags too) and returns the
// frame's size in bytes, header included.
func (c *Conn) WriteMemberSyncFrame(p MemberSyncPayload, reply bool) (int, error) {
	return c.writeFrame(FrameMemberSync, MemberSyncFlags(p, reply), func(dst []byte) ([]byte, error) {
		return AppendMemberSyncPayload(dst, p)
	})
}

// DecodeMemberSyncFrame parses a FrameMemberSync payload, restoring Full and
// WantFull from the frame flags. The result holds no reference to f.Payload,
// so the caller may Release the frame immediately; whether the frame is the
// reply leg is f.Flags & MemberSyncFlagReply.
func DecodeMemberSyncFrame(f *Frame) (MemberSyncPayload, error) {
	if f.Type != FrameMemberSync {
		return MemberSyncPayload{}, fmt.Errorf("%w: frame type 0x%02x is not member-sync", ErrBadFrame, f.Type)
	}
	cur := &ledgerCursor{b: f.Payload}
	fromLen, err := cur.u16()
	if err != nil {
		return MemberSyncPayload{}, err
	}
	count, err := cur.u32()
	if err != nil {
		return MemberSyncPayload{}, err
	}
	var p MemberSyncPayload
	if p.Epoch, err = cur.u64(); err != nil {
		return MemberSyncPayload{}, err
	}
	if p.Seq, err = cur.u64(); err != nil {
		return MemberSyncPayload{}, err
	}
	if p.Ack, err = cur.u64(); err != nil {
		return MemberSyncPayload{}, err
	}
	known, err := cur.u32()
	if err != nil {
		return MemberSyncPayload{}, err
	}
	if uint64(known) > math.MaxInt32 {
		return MemberSyncPayload{}, fmt.Errorf("%w: member sync known %d", ErrBadFrame, known)
	}
	p.Known = int(known)
	from, err := cur.name(fromLen)
	if err != nil {
		return MemberSyncPayload{}, err
	}
	p.From = topology.NodeID(from)
	if count > 0 {
		// Each entry is at least 19 bytes; reject counts the remaining
		// payload cannot possibly hold before allocating.
		if uint64(count)*19 > uint64(len(cur.b)-cur.off) {
			return MemberSyncPayload{}, fmt.Errorf("%w: member count %d overruns payload", ErrBadFrame, count)
		}
		p.Members = make([]MemberEntry, 0, count)
	}
	var prev topology.NodeID
	for i := range count {
		var e MemberEntry
		nodeLen, err := cur.u16()
		if err != nil {
			return MemberSyncPayload{}, err
		}
		node, err := cur.name(nodeLen)
		if err != nil {
			return MemberSyncPayload{}, err
		}
		e.Node = topology.NodeID(node)
		if i > 0 && e.Node <= prev {
			return MemberSyncPayload{}, fmt.Errorf("%w: member entries not strictly node-sorted", ErrBadFrame)
		}
		prev = e.Node
		if e.Incarnation, err = cur.u64(); err != nil {
			return MemberSyncPayload{}, err
		}
		if e.Heartbeat, err = cur.u64(); err != nil {
			return MemberSyncPayload{}, err
		}
		stateB, err := cur.take(1)
		if err != nil {
			return MemberSyncPayload{}, err
		}
		name, ok := memberStateName(stateB[0])
		if !ok {
			return MemberSyncPayload{}, fmt.Errorf("%w: member state code %d", ErrBadFrame, stateB[0])
		}
		e.State = name
		p.Members = append(p.Members, e)
	}
	if cur.off != len(cur.b) {
		return MemberSyncPayload{}, fmt.Errorf("%w: %d trailing bytes after member sync", ErrBadFrame, len(cur.b)-cur.off)
	}
	p.Full = f.Flags&MemberSyncFlagFull != 0
	p.WantFull = f.Flags&MemberSyncFlagWantFull != 0
	return p, nil
}
