package transport

import (
	"encoding/binary"
	"fmt"
)

// Prefix tier wire messages. The prefix announce is the per-session
// notification: right after watch.ok (and before any cluster) the server
// tells the client how many leading clusters come straight off the local
// prefix store and how many remote round trips its first cluster cost, so
// PlaybackStats can attribute startup latency without guessing. relay.join
// is the cross-server cohort subscription: a relay server whose merge cohort
// needs a non-resident title opens ONE relay.join to the origin and fans the
// resulting stream to all of its local watchers; on the origin side the
// relay session joins the origin's own merge registry, so N relays share one
// disk-read stream. The reply reuses the watch framing (watch.ok, clusters,
// watch.done) — relay.join differs from watch only in what it does not do:
// no redirect, no admission grant, no per-watch popularity count beyond the
// one demand signal per cohort.
const (
	// FramePrefixAnnounce is the prefix announce's binary frame type code.
	FramePrefixAnnounce byte = 0x05
	// TypeRelayJoin asks a holder to stream a title for a downstream cohort.
	TypeRelayJoin = "relay.join"
)

// PrefixAnnouncePayload describes one session's prefix-tier service.
type PrefixAnnouncePayload struct {
	// PrefixClusters is how many leading clusters (from the session's start
	// position) the server serves from its local prefix store.
	PrefixClusters int `json:"prefixClusters"`
	// StartupRTTs is the number of cross-network fetches the server needs
	// for the session's first cluster: 0 when it is DMA-resident or pinned
	// in the prefix, 1 otherwise.
	StartupRTTs int `json:"startupRTTs"`
	// RelayTail reports that the session's tail rides a shared upstream
	// relay subscription instead of per-cluster peer fetches.
	RelayTail bool `json:"relayTail,omitempty"`
}

// RelayJoinPayload opens one upstream cohort subscription.
type RelayJoinPayload struct {
	// Title names the requested title.
	Title string `json:"title"`
	// StartCluster is the first cluster the downstream cohort needs.
	StartCluster int `json:"startCluster"`
}

// prefixAnnounceLen is the fixed binary payload size:
// prefixClusters(4) startupRTTs(2) flags(1).
const prefixAnnounceLen = 7

// prefixFlagRelayTail marks RelayTail in the binary flags byte.
const prefixFlagRelayTail byte = 0x01

// appendPrefixAnnounceFrame validates p and appends its full binary frame
// (header + payload) to dst.
func appendPrefixAnnounceFrame(dst []byte, p PrefixAnnouncePayload) ([]byte, error) {
	if p.PrefixClusters < 0 || p.StartupRTTs < 0 {
		return nil, fmt.Errorf("%w: negative prefix-announce field", ErrBadFrame)
	}
	if int64(uint32(p.PrefixClusters)) != int64(p.PrefixClusters) {
		return nil, fmt.Errorf("%w: prefix cluster count overflow", ErrBadFrame)
	}
	if p.StartupRTTs > 0xFFFF {
		return nil, fmt.Errorf("%w: startup RTT count overflow", ErrBadFrame)
	}
	var flags byte
	if p.RelayTail {
		flags |= prefixFlagRelayTail
	}
	dst = append(dst,
		FrameMagic0, FrameMagic1, FrameVersion, FramePrefixAnnounce, 0, // frame flags
		0, 0, 0, prefixAnnounceLen)
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.PrefixClusters))
	dst = binary.BigEndian.AppendUint16(dst, uint16(p.StartupRTTs))
	dst = append(dst, flags)
	return dst, nil
}

// QueuePrefixAnnounceFrame frames one prefix announcement into the
// connection's write queue instead of writing it, so it rides the next
// cluster frame's writev exactly as the queued watch.ok does.
func (c *Conn) QueuePrefixAnnounceFrame(p PrefixAnnouncePayload) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	qbuf, err := appendPrefixAnnounceFrame(c.qbuf, p)
	if err != nil {
		return err
	}
	c.qbuf = qbuf
	return nil
}

// DecodePrefixAnnounceFrame parses a FramePrefixAnnounce payload. The result
// holds no reference to f.Payload, so the caller may Release the frame
// immediately. Unknown flag bits are rejected: the frame is versioned by the
// hello exchange, so a bit this build does not know is a framing error, not
// a forward-compatibility hole.
func DecodePrefixAnnounceFrame(f *Frame) (PrefixAnnouncePayload, error) {
	if f.Type != FramePrefixAnnounce {
		return PrefixAnnouncePayload{}, fmt.Errorf("%w: frame type 0x%02x is not prefix-announce", ErrBadFrame, f.Type)
	}
	b := f.Payload
	if len(b) != prefixAnnounceLen {
		return PrefixAnnouncePayload{}, fmt.Errorf("%w: prefix-announce payload %d bytes, want %d", ErrBadFrame, len(b), prefixAnnounceLen)
	}
	flags := b[6]
	if flags&^prefixFlagRelayTail != 0 {
		return PrefixAnnouncePayload{}, fmt.Errorf("%w: unknown prefix-announce flags 0x%02x", ErrBadFrame, flags)
	}
	return PrefixAnnouncePayload{
		PrefixClusters: int(binary.BigEndian.Uint32(b[0:4])),
		StartupRTTs:    int(binary.BigEndian.Uint16(b[4:6])),
		RelayTail:      flags&prefixFlagRelayTail != 0,
	}, nil
}
