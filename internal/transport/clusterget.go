package transport

import (
	"encoding/binary"
	"fmt"
)

// FrameClusterGet is the binary cluster.get: the request a home sends a
// peer for one stored cluster, answered by a FrameCluster (see
// ReadClusterReply) or an error frame. It carries no request tag, so a
// connection has one request in flight at a time. The JSON cluster.get
// (TypeClusterGet) is still answered on a connection that never sent a
// hello, the one cluster exchange that needs none.
const FrameClusterGet byte = 0x06

// clusterGetFixed is the fixed-width prefix of a FrameClusterGet payload:
// index(4) clusterBytes(8) titleLen(2), then the title.
const clusterGetFixed = 14

// appendClusterGetFrame validates p and appends its full binary frame
// (header + payload) to dst.
func appendClusterGetFrame(dst []byte, p ClusterGetPayload) ([]byte, error) {
	if p.Index < 0 || int64(uint32(p.Index)) != int64(p.Index) {
		return nil, fmt.Errorf("%w: cluster index %d", ErrBadFrame, p.Index)
	}
	if p.ClusterBytes < 0 || p.ClusterBytes > 1<<62 {
		return nil, fmt.Errorf("%w: cluster bytes %d", ErrBadFrame, p.ClusterBytes)
	}
	if len(p.Title) > 0xFFFF {
		return nil, fmt.Errorf("%w: title too long", ErrBadFrame)
	}
	dst = append(dst, FrameMagic0, FrameMagic1, FrameVersion, FrameClusterGet, 0) // flags
	dst = binary.BigEndian.AppendUint32(dst, uint32(clusterGetFixed+len(p.Title)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.Index))
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.ClusterBytes))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Title)))
	return append(dst, p.Title...), nil
}

// WriteClusterGetFrame sends one cluster.get as a binary frame (together
// with any queued control frames, in one writev).
func (c *Conn) WriteClusterGetFrame(p ClusterGetPayload) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	scratch, err := appendClusterGetFrame(c.wscratch[:0], p)
	if err != nil {
		return err
	}
	c.wscratch = scratch[:0]
	if err := c.writeVectoredLocked(scratch); err != nil {
		return fmt.Errorf("write cluster.get frame: %w", err)
	}
	return nil
}

// DecodeClusterGetFrame parses a FrameClusterGet payload. The result holds
// no reference to f.Payload, so the caller may Release the frame at once.
func DecodeClusterGetFrame(f *Frame) (ClusterGetPayload, error) {
	if f.Type != FrameClusterGet {
		return ClusterGetPayload{}, fmt.Errorf("%w: frame type 0x%02x is not a cluster.get", ErrBadFrame, f.Type)
	}
	b := f.Payload
	if len(b) < clusterGetFixed {
		return ClusterGetPayload{}, fmt.Errorf("%w: cluster.get truncated (%d bytes)", ErrBadFrame, len(b))
	}
	titleLen := int(binary.BigEndian.Uint16(b[12:14]))
	if len(b) != clusterGetFixed+titleLen {
		return ClusterGetPayload{}, fmt.Errorf("%w: cluster.get payload %d bytes, title %d", ErrBadFrame, len(b), titleLen)
	}
	clusterBytes := binary.BigEndian.Uint64(b[4:12])
	if clusterBytes > 1<<62 {
		return ClusterGetPayload{}, fmt.Errorf("%w: cluster bytes overflow", ErrBadFrame)
	}
	return ClusterGetPayload{
		Title:        string(b[clusterGetFixed:]),
		Index:        int(binary.BigEndian.Uint32(b[0:4])),
		ClusterBytes: int64(clusterBytes),
	}, nil
}
