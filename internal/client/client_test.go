package client

import (
	"strings"
	"testing"
	"time"

	"dvod/internal/topology"
	"dvod/internal/transport"
)

// TestAccountPlayback exercises the stall model directly: 1 Mbps title,
// 125000-byte clusters (1 s of playback each).
func TestAccountPlayback(t *testing.T) {
	p := &Player{home: "U1"}
	start := time.Date(2000, time.April, 10, 8, 0, 0, 0, time.UTC)
	info := transport.WatchOKPayload{Title: "m", BitrateMbps: 1.0, SizeBytes: 3 * 125000}
	mk := func(arrivals ...time.Duration) PlaybackStats {
		stats := PlaybackStats{}
		for i, a := range arrivals {
			stats.Records = append(stats.Records, ClusterRecord{
				Index:     i,
				Length:    125000,
				ArrivedAt: start.Add(a),
			})
		}
		p.accountPlayback(&stats, info, start)
		return stats
	}

	// Smooth delivery: clusters arrive faster than playback consumes.
	smooth := mk(100*time.Millisecond, 200*time.Millisecond, 300*time.Millisecond)
	if smooth.StartupDelay != 100*time.Millisecond {
		t.Fatalf("startup = %v", smooth.StartupDelay)
	}
	if smooth.Stalls != 0 || smooth.StallTime != 0 {
		t.Fatalf("smooth playback stalled: %+v", smooth)
	}

	// Late cluster: cluster 1 due at start+1.1s (startup 100ms + 1s of
	// cluster 0), arrives at 1.6s → one 500ms stall.
	late := mk(100*time.Millisecond, 1600*time.Millisecond, 1700*time.Millisecond)
	if late.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", late.Stalls)
	}
	if late.StallTime != 500*time.Millisecond {
		t.Fatalf("stall time = %v, want 500ms", late.StallTime)
	}

	// Two stalls.
	double := mk(0, 2*time.Second, 4*time.Second)
	if double.Stalls != 2 {
		t.Fatalf("stalls = %d, want 2", double.Stalls)
	}

	// No records or zero bitrate: no accounting, no panic.
	var empty PlaybackStats
	p.accountPlayback(&empty, info, start)
	if empty.Stalls != 0 {
		t.Fatal("empty records produced stalls")
	}
	s := mk()
	if s.StartupDelay != 0 {
		t.Fatal("no-record startup delay set")
	}
	zero := PlaybackStats{Records: []ClusterRecord{{Length: 10, ArrivedAt: start}}}
	p.accountPlayback(&zero, transport.WatchOKPayload{BitrateMbps: 0}, start)
	if zero.Stalls != 0 || zero.StartupDelay != 0 {
		t.Fatal("zero bitrate accounted")
	}
}

func TestWithoutVerificationOption(t *testing.T) {
	book := transport.NewAddrBook()
	p, err := NewPlayer("U1", book, WithoutVerification())
	if err != nil {
		t.Fatal(err)
	}
	if p.verify {
		t.Fatal("WithoutVerification did not disable verification")
	}
	p2, err := NewPlayer("U1", book)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.verify {
		t.Fatal("verification should default on")
	}
}

// TestRecordClusterRejectsNegativeOffset: a JSON cluster header is peer input
// and may carry a negative offset; verification must reject it, not panic.
func TestRecordClusterRejectsNegativeOffset(t *testing.T) {
	p := &Player{home: "U1", verify: true}
	stats := PlaybackStats{Verified: true}
	var last topology.NodeID
	payload := transport.ClusterPayload{Index: 0, Offset: -1, Length: 4, Source: "U2"}
	err := p.recordCluster(&stats, "m", payload, make([]byte, 4), &last)
	if err == nil || !strings.Contains(err.Error(), "failed content verification") {
		t.Fatalf("recordCluster(offset -1) error = %v, want a content-verification error", err)
	}
	if stats.Verified || len(stats.Records) != 0 {
		t.Fatalf("rejected cluster left a record: verified=%v records=%d", stats.Verified, len(stats.Records))
	}
}
