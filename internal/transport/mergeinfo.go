package transport

import (
	"encoding/binary"
	"fmt"
)

// Merge-info: the one protocol addition stream merging makes. When the
// server coalesces a watch session onto a shared cohort (DESIGN.md § "Stream
// merging"), it announces the fact right after watch.ok — before any cluster
// — so the client can report its role. Delivery itself is unchanged: clusters
// arrive in order whether they came from a private read or a cohort
// broadcast, and clients that ignore the frame keep working.

// FrameMergeInfo is the merge announcement's binary frame type code.
const FrameMergeInfo byte = 0x02

// Merge roles carried by MergeInfoPayload.Role.
const (
	// MergeRoleBase: the session opened its cohort; its position is the
	// base stream every later joiner shares.
	MergeRoleBase = "base"
	// MergeRolePatch: the session attached to an existing cohort; clusters
	// before the join position arrive as a private patch stream.
	MergeRolePatch = "patch"
)

// MergeInfoPayload describes one session's cohort attachment.
type MergeInfoPayload struct {
	// Cohort identifies the cohort within the serving node.
	Cohort int64 `json:"cohort"`
	// Role is MergeRoleBase or MergeRolePatch.
	Role string `json:"role"`
	// JoinIndex is the first cluster the session receives from the shared
	// base stream.
	JoinIndex int `json:"joinIndex"`
	// PatchClusters is how many clusters precede JoinIndex as a patch
	// stream (0 for the base session).
	PatchClusters int `json:"patchClusters,omitempty"`
}

// mergeInfoLen is the fixed binary payload size:
// cohort(8) role(1) joinIndex(4) patchClusters(4).
const mergeInfoLen = 17

// Binary role codes.
const (
	mergeRoleBaseCode  byte = 1
	mergeRolePatchCode byte = 2
)

// appendMergeInfoFrame validates p and appends its full binary frame
// (header + payload) to dst.
func appendMergeInfoFrame(dst []byte, p MergeInfoPayload) ([]byte, error) {
	var roleCode byte
	switch p.Role {
	case MergeRoleBase:
		roleCode = mergeRoleBaseCode
	case MergeRolePatch:
		roleCode = mergeRolePatchCode
	default:
		return nil, fmt.Errorf("%w: merge role %q", ErrBadFrame, p.Role)
	}
	if p.Cohort < 0 || p.JoinIndex < 0 || p.PatchClusters < 0 {
		return nil, fmt.Errorf("%w: negative merge-info field", ErrBadFrame)
	}
	if int64(uint32(p.JoinIndex)) != int64(p.JoinIndex) ||
		int64(uint32(p.PatchClusters)) != int64(p.PatchClusters) {
		return nil, fmt.Errorf("%w: merge-info field overflow", ErrBadFrame)
	}
	dst = append(dst,
		FrameMagic0, FrameMagic1, FrameVersion, FrameMergeInfo, 0, // flags
		0, 0, 0, mergeInfoLen)
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.Cohort))
	dst = append(dst, roleCode)
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.JoinIndex))
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.PatchClusters))
	return dst, nil
}

// WriteMergeInfoFrame sends one merge-info announcement as a binary frame
// (together with any queued control frames, in one writev).
func (c *Conn) WriteMergeInfoFrame(p MergeInfoPayload) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	scratch, err := appendMergeInfoFrame(c.wscratch[:0], p)
	if err != nil {
		return err
	}
	c.wscratch = scratch[:0]
	if err := c.writeVectoredLocked(scratch); err != nil {
		return fmt.Errorf("write merge-info frame: %w", err)
	}
	return nil
}

// QueueMergeInfoFrame frames one merge-info announcement into the
// connection's write queue instead of writing it: the binary twin of
// QueueMessage, letting the announcement ride the next cluster frame's
// writev (see Flush for the ordering contract).
func (c *Conn) QueueMergeInfoFrame(p MergeInfoPayload) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	qbuf, err := appendMergeInfoFrame(c.qbuf, p)
	if err != nil {
		return err
	}
	c.qbuf = qbuf
	return nil
}

// DecodeMergeInfoFrame parses a FrameMergeInfo payload. The result holds no
// reference to f.Payload, so the caller may Release the frame immediately.
func DecodeMergeInfoFrame(f *Frame) (MergeInfoPayload, error) {
	if f.Type != FrameMergeInfo {
		return MergeInfoPayload{}, fmt.Errorf("%w: frame type 0x%02x is not merge-info", ErrBadFrame, f.Type)
	}
	b := f.Payload
	if len(b) != mergeInfoLen {
		return MergeInfoPayload{}, fmt.Errorf("%w: merge-info payload %d bytes, want %d", ErrBadFrame, len(b), mergeInfoLen)
	}
	cohort := binary.BigEndian.Uint64(b[0:8])
	if cohort > 1<<62 {
		return MergeInfoPayload{}, fmt.Errorf("%w: cohort id overflow", ErrBadFrame)
	}
	var role string
	switch b[8] {
	case mergeRoleBaseCode:
		role = MergeRoleBase
	case mergeRolePatchCode:
		role = MergeRolePatch
	default:
		return MergeInfoPayload{}, fmt.Errorf("%w: merge role code 0x%02x", ErrBadFrame, b[8])
	}
	return MergeInfoPayload{
		Cohort:        int64(cohort),
		Role:          role,
		JoinIndex:     int(binary.BigEndian.Uint32(b[9:13])),
		PatchClusters: int(binary.BigEndian.Uint32(b[13:17])),
	}, nil
}
