package client

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dvod/internal/media"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// Holders asks the home server which replicas hold the title (plus the
// delivery parameters a parallel fetch needs).
func (p *Player) Holders(title string) (transport.HoldersOKPayload, error) {
	req, err := transport.Encode(transport.TypeHolders, transport.HoldersPayload{Title: title})
	if err != nil {
		return transport.HoldersOKPayload{}, err
	}
	m, err := p.call(req)
	if err != nil {
		return transport.HoldersOKPayload{}, err
	}
	return transport.Decode[transport.HoldersOKPayload](m)
}

// getCluster runs one cluster.get exchange with the server at addr on a
// pooled connection and returns the cluster's header and body. The body
// aliases the returned frame, which the caller must Release.
func (p *Player) getCluster(addr string, req transport.Message) (transport.ClusterPayload, []byte, *transport.Frame, error) {
	var (
		m transport.Message
		f *transport.Frame
	)
	conn, err := p.request(addr, req, func(c *transport.Conn) (err error) {
		m, f, err = c.ReadFrameOrMessage(p.pool)
		return err
	})
	if err != nil {
		return transport.ClusterPayload{}, nil, nil, err
	}
	if rerr := transport.AsError(m); rerr != nil {
		_ = conn.Close()
		return transport.ClusterPayload{}, nil, nil, rerr
	}
	payload, body, hold, err := p.readCluster(conn, m, f)
	if err != nil {
		_ = conn.Close()
		return transport.ClusterPayload{}, nil, nil, err
	}
	p.conns.Put(addr, conn)
	return payload, body, hold, nil
}

// WatchParallel pulls the title's clusters directly from its replica
// holders, round-robin, one fetcher per holder — the delivery-side
// realization of the paper's future work (strips distributed across
// servers). Holders missing from the address book are skipped; the fetch
// fails if none remain.
func (p *Player) WatchParallel(title string) (PlaybackStats, error) {
	info, err := p.Holders(title)
	if err != nil {
		return PlaybackStats{}, err
	}
	// Resolve dialable holders.
	type replica struct {
		node topology.NodeID
		addr string
	}
	var replicas []replica
	for _, h := range info.Holders {
		addr, err := p.book.Lookup(h)
		if err != nil {
			continue
		}
		replicas = append(replicas, replica{node: h, addr: addr})
	}
	if len(replicas) == 0 {
		return PlaybackStats{}, fmt.Errorf("no dialable holder for %q", title)
	}

	start := time.Now()
	stats := PlaybackStats{
		Title:       info.Title,
		NumClusters: info.NumClusters,
		Verified:    true,
	}
	records := make([]ClusterRecord, info.NumClusters)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for ri, rep := range replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := ri; idx < info.NumClusters; idx += len(replicas) {
				req, err := transport.Encode(transport.TypeClusterGet, transport.ClusterGetPayload{
					Title:        title,
					Index:        idx,
					ClusterBytes: info.ClusterBytes,
				})
				if err != nil {
					fail(err)
					return
				}
				payload, body, hold, err := p.getCluster(rep.addr, req)
				if err != nil {
					fail(fmt.Errorf("fetch %s[%d] from %s: %w", title, idx, rep.node, err))
					return
				}
				switch {
				case payload.Index != idx:
					err = fmt.Errorf("asked for cluster %d, got %d", idx, payload.Index)
				case p.verify && !media.Verify(title, payload.Offset, body):
					err = fmt.Errorf("cluster %d from %s failed verification", idx, rep.node)
				}
				hold.Release()
				if err != nil {
					fail(err)
					return
				}
				records[idx] = ClusterRecord{
					Index:     idx,
					Length:    payload.Length,
					Source:    payload.Source,
					ArrivedAt: time.Now(),
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		stats.Verified = false
		return stats, firstErr
	}
	for idx, rec := range records {
		if rec.Length == 0 && int64(idx)*info.ClusterBytes < info.SizeBytes {
			// A zero-length record with bytes remaining means a worker
			// skipped it (cannot happen unless NumClusters lied).
			return stats, errors.New("incomplete parallel delivery")
		}
		stats.Records = append(stats.Records, rec)
		stats.Sources = append(stats.Sources, rec.Source)
		stats.BytesReceived += rec.Length
	}
	stats.Elapsed = time.Since(start)
	if stats.BytesReceived != info.SizeBytes {
		return stats, fmt.Errorf("received %d bytes, want %d", stats.BytesReceived, info.SizeBytes)
	}
	// Sources rotate by construction; count distinct servers as switches
	// the way sequential watching would observe them.
	var last topology.NodeID
	stats.Switches = 0
	for _, s := range stats.Sources {
		if last != "" && s != last {
			stats.Switches++
		}
		last = s
	}
	// Stall model over in-order consumption of the (index-sorted) records.
	sort.Slice(stats.Records, func(i, j int) bool {
		return stats.Records[i].Index < stats.Records[j].Index
	})
	p.accountPlayback(&stats, transport.WatchOKPayload{
		Title:        info.Title,
		SizeBytes:    info.SizeBytes,
		BitrateMbps:  info.BitrateMbps,
		ClusterBytes: info.ClusterBytes,
		NumClusters:  info.NumClusters,
	}, start)
	return stats, nil
}
