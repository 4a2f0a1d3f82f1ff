// Package client implements the live-plane player: it connects to the
// client's home video server (the paper resolves this from the requesting
// IP; here the mapping is explicit), requests a title, receives it cluster
// by cluster, verifies content integrity, observes mid-stream server
// switches, and accounts playback stalls against the title's bitrate.
package client

import (
	"errors"
	"fmt"
	"time"

	"dvod/internal/admission"
	"dvod/internal/faults"
	"dvod/internal/media"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// Player watches titles through one home server. It keeps its connections
// open between requests: every exchange takes an idle connection to the
// server from the player's pool, or dials one when there is none, and hands
// it back once the exchange completed. A Player is safe for concurrent use;
// Close releases the idle connections.
type Player struct {
	home topology.NodeID
	book *transport.AddrBook
	// verify enables byte-level content verification of each cluster.
	verify bool
	// pool leases cluster-body buffers for the receive loop.
	pool *transport.BufferPool
	// conns holds the idle connections, keyed by server address.
	conns *transport.ConnPool
	// class is sent with every watch request; empty means standard.
	class admission.Class
	// dial overrides the dialer; nil uses transport.Dial. Fault injectors use
	// this to interpose on the client↔home connection.
	dial func(addr string) (*transport.Conn, error)
	// resume enables mid-stream recovery: a watch that fails after delivery
	// started is re-requested from the first undelivered cluster under a
	// retry budget and jittered backoff, and the attempts' records merge
	// into one gapless session.
	resume bool
	// redirectLimit bounds how many watch.redirect bounces one watch follows
	// before giving up (DefaultRedirectLimit unless overridden); negative
	// disables following and surfaces the first redirect as an error.
	redirectLimit int
}

// DefaultRedirectLimit is how many watch.redirect bounces a watch follows by
// default, matching the server-side hop cap: past this many the fleet is
// misbehaving and the client reports it rather than orbiting.
const DefaultRedirectLimit = 3

// idleConnAge is how long an idle connection stays eligible for reuse, well
// under the server's default two-minute idle timeout.
const idleConnAge = 30 * time.Second

// connReadBuffer fixes the kernel receive buffer of every player connection
// at one default-size cluster. Left to autotuning, a reused connection keeps
// the receive window the kernel grew during its last watch — up to
// megabytes — and the server streams that far ahead of the player, taking
// the CPU the player needs to read the first cluster: on a 2-core host,
// pooled connections raised edge_hit's median time to first cluster from
// 1.3 to 2.0 ms; with this buffer it reads 0.65 ms.
const connReadBuffer = 256 << 10

// Option configures a Player.
type Option func(*Player)

// WithoutVerification disables per-cluster content checking (useful for
// throughput benchmarks).
func WithoutVerification() Option {
	return func(p *Player) { p.verify = false }
}

// WithBufferPool substitutes the buffer pool the receive loop leases cluster
// bodies from (by default the process-wide transport.DefaultPool). Useful to
// surface the pool's hit/miss counters in a caller-owned metrics registry.
func WithBufferPool(pool *transport.BufferPool) Option {
	return func(p *Player) {
		if pool != nil {
			p.pool = pool
		}
	}
}

// WithClass sets the user class sent with watch requests. Servers running
// admission control reserve bandwidth, degrade, queue, or reject according
// to the class's policy; class-unaware servers ignore it.
func WithClass(c admission.Class) Option {
	return func(p *Player) { p.class = c }
}

// WithDialer substitutes the function that opens the player's connections
// (default transport.Dial). A fault injector's dial gates the connection
// here so the home link can be cut or stalled mid-watch; tests use it to
// interpose. The gated connection is what the player pools, so it keeps
// gating (and being cut) while it sits idle between watches.
func WithDialer(dial func(addr string) (*transport.Conn, error)) Option {
	return func(p *Player) {
		if dial != nil {
			p.dial = dial
		}
	}
}

// WithRedirectLimit overrides how many watch.redirect bounces one watch
// follows (default DefaultRedirectLimit). Zero keeps the default; negative
// disables following entirely — the first redirect surfaces as a
// *RedirectError, for clients that want to manage placement themselves.
func WithRedirectLimit(n int) Option {
	return func(p *Player) {
		if n != 0 {
			p.redirectLimit = n
		}
	}
}

// WithResume turns on mid-stream recovery: when a watch fails after delivery
// began (connection cut, server error), the player goes back to its home and
// re-requests the title from the first cluster it has not yet received,
// stitching the attempts into one session. Stall accounting then spans the
// outage — the recovery gap surfaces as rebuffer time, not a failed watch.
// Admission rejections stay terminal. Retries draw from a per-session budget
// (reserve 3, +0.1 per delivered cluster) with jittered exponential backoff
// between attempts, and are reported in PlaybackStats.Retries.
func WithResume() Option {
	return func(p *Player) { p.resume = true }
}

// RejectedError is the typed client-side view of a server's watch.reject
// response: admission control refused the session.
type RejectedError struct {
	Title      string
	Class      admission.Class
	Reason     string
	NeededMbps float64
	FreeMbps   float64
}

// Error implements error.
func (e *RejectedError) Error() string {
	return fmt.Sprintf("watch %q rejected (%s, class %s)", e.Title, e.Reason, e.Class)
}

// Unwrap lets errors.Is match admission.ErrRejected.
func (e *RejectedError) Unwrap() error { return admission.ErrRejected }

// ErrRedirectLoop reports a watch.redirect chain that revisited a node the
// session was already bounced through — a placement disagreement between
// front doors, surfaced instead of orbited.
var ErrRedirectLoop = errors.New("client: redirect loop")

// ErrTooManyRedirects reports a redirect chain longer than the player's
// redirect limit.
var ErrTooManyRedirects = errors.New("client: too many redirects")

// RedirectError is the typed failure of following one watch.redirect hop:
// which node the client was bounced toward and why the hop failed (the
// wrapped cause — a refused dial when the target died between the redirect
// decision and the follow-up, ErrRedirectLoop, or ErrTooManyRedirects).
type RedirectError struct {
	Title  string
	Target topology.NodeID
	Addr   string
	Hops   int
	Err    error
}

// Error implements error.
func (e *RedirectError) Error() string {
	return fmt.Sprintf("watch %q: redirect hop %d to %s (%s): %v",
		e.Title, e.Hops, e.Target, e.Addr, e.Err)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *RedirectError) Unwrap() error { return e.Err }

// NewPlayer builds a player homed at the given node.
func NewPlayer(home topology.NodeID, book *transport.AddrBook, opts ...Option) (*Player, error) {
	if home == "" {
		return nil, errors.New("player: empty home node")
	}
	if book == nil {
		return nil, errors.New("player: nil address book")
	}
	p := &Player{home: home, book: book, verify: true,
		pool: transport.DefaultPool(), conns: transport.NewConnPool(idleConnAge),
		redirectLimit: DefaultRedirectLimit}
	for _, o := range opts {
		o(p)
	}
	return p, nil
}

// Home returns the player's home server node.
func (p *Player) Home() topology.NodeID { return p.home }

// Close closes the player's idle connections. Exchanges still in flight
// finish and close theirs instead of pooling them, and later requests still
// work, each on a connection of its own. Idempotent.
func (p *Player) Close() error {
	p.conns.Close()
	return nil
}

// ListTitles queries the home server's catalog view.
func (p *Player) ListTitles() ([]transport.TitleInfo, error) {
	req, err := transport.Encode(transport.TypeTitles, nil)
	if err != nil {
		return nil, err
	}
	m, err := p.call(req)
	if err != nil {
		return nil, err
	}
	payload, err := transport.Decode[transport.TitlesPayload](m)
	if err != nil {
		return nil, err
	}
	return payload.Titles, nil
}

// Holders asks the home server which replicas hold the title, with the
// title's size and cluster layout.
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

// ClusterRecord describes one delivered cluster.
type ClusterRecord struct {
	Index     int
	Length    int64
	Source    topology.NodeID
	ArrivedAt time.Time
}

// PlaybackStats summarizes one watch session.
type PlaybackStats struct {
	Title         string
	NumClusters   int
	BytesReceived int64
	// Verified is true when every cluster matched the canonical content
	// (always true when verification is disabled and delivery succeeded —
	// in that case it reports delivery, not content).
	Verified bool
	// Switches counts mid-stream source changes observed by the client.
	Switches int
	// Sources is the serving node of each cluster, in order.
	Sources []topology.NodeID
	// Class, Degraded, and DeliveredMbps echo the server's admission
	// outcome: the granted class, whether the session was admitted below
	// the title's native bitrate, and the rate playout is paced at
	// (0 from class-unaware servers).
	Class         admission.Class
	Degraded      bool
	DeliveredMbps float64
	// BinaryFraming is always true: a player requires binary cluster frames
	// on every connection. It stays for callers that still check it.
	BinaryFraming bool
	// Merged reports whether the server coalesced this session onto a
	// shared stream-merging cohort; delivery is unchanged, the merge.info
	// announcement is purely observational. MergeRole is "base" (this
	// session opened the cohort) or "patch" (it attached to one),
	// MergeCohort identifies the cohort on the serving node, and
	// PatchClusters is how many clusters arrived as a private patch stream
	// before the shared stream took over.
	Merged        bool
	MergeRole     string
	MergeCohort   int64
	PatchClusters int
	// PrefixClusters echoes the server's prefix.info announcement: how many
	// leading clusters (from the session's start position) were served off
	// the server's local prefix pin, with zero cross-network fetches.
	// StartupRTTs is the server-reported count of remote fetches its first
	// cluster needed (0 when it came from the DMA cache or the prefix tier),
	// and RelayTail reports that the tail rode a shared cross-server relay
	// subscription. All are 0/false against servers without a prefix tier.
	PrefixClusters int
	StartupRTTs    int
	RelayTail      bool
	// Retries counts mid-stream resume attempts (always 0 without
	// WithResume).
	Retries int
	// Redirects counts watch.redirect bounces this session followed before
	// a server agreed to serve it, and RedirectPath lists the targets in
	// bounce order (empty when the home served directly).
	Redirects    int
	RedirectPath []topology.NodeID
	// ReservationMigrations echoes how many times the home server moved this
	// session's bandwidth reservation to a new route mid-stream (the
	// watch.done payload; 0 when it never moved).
	ReservationMigrations int
	// StartupDelay is the time to the first cluster's arrival.
	StartupDelay time.Duration
	// Stalls and StallTime account rebuffering: playback consumes each
	// cluster over its bitrate-duration, and a cluster arriving after its
	// deadline stalls the playout.
	Stalls    int
	StallTime time.Duration
	// Elapsed is total wall time from request to last byte.
	Elapsed time.Duration
	Records []ClusterRecord
}

// conn returns a connection to addr for one exchange: the most recently
// pooled idle one unless fresh is set or there is none, otherwise a new dial
// through the player's dialer, its receive buffer sized and the hello
// handshake run once, here. The caller owns the connection until it puts it
// back or closes it.
func (p *Player) conn(addr string, fresh bool) (c *transport.Conn, reused bool, err error) {
	if !fresh {
		if c := p.conns.Get(addr); c != nil {
			return c, true, nil
		}
	}
	if p.dial != nil {
		c, err = p.dial(addr)
	} else {
		c, err = transport.Dial(addr)
	}
	if err != nil {
		return nil, false, err
	}
	if err := c.SetReadBuffer(connReadBuffer); err != nil {
		_ = c.Close()
		return nil, false, fmt.Errorf("size receive buffer of %s: %w", addr, err)
	}
	// Every stream arrives as binary cluster frames: a server that does not
	// grant them cannot serve a watch.
	if err := c.RequireClusterFrames(); err != nil {
		_ = c.Close()
		return nil, false, err
	}
	return c, false, nil
}

// request sends req to the server at addr and lets first read the server's
// first reply frame. A reused connection that fails before that reply
// arrives was stale — the server timed it out, evicted it, restarted, or a
// fault cut it while it sat idle — and says nothing about the request, so
// the request goes out once more on a fresh dial, within the same attempt:
// no retry is counted and no backoff taken. A failure on a fresh dial, or
// anything after the first reply, is the caller's to handle. The caller owns
// the returned connection: back to the pool after a complete exchange,
// closed on any error.
func (p *Player) request(addr string, req transport.Message, first func(*transport.Conn) error) (*transport.Conn, error) {
	for fresh := false; ; fresh = true {
		c, reused, err := p.conn(addr, fresh)
		if err != nil {
			return nil, err
		}
		err = c.WriteMessage(req)
		if err == nil {
			err = first(c)
		}
		if err == nil {
			return c, nil
		}
		_ = c.Close()
		if !reused {
			return nil, err
		}
	}
}

// call runs a one-message exchange with the home server (titles, holders):
// req out, one control reply back, and the connection straight back to the
// pool. A TypeError reply surfaces as the error.
func (p *Player) call(req transport.Message) (transport.Message, error) {
	addr, err := p.book.Lookup(p.home)
	if err != nil {
		return transport.Message{}, err
	}
	var m transport.Message
	c, err := p.request(addr, req, func(c *transport.Conn) (err error) {
		m, err = c.ReadMessage()
		return err
	})
	if err != nil {
		return transport.Message{}, err
	}
	if rerr := transport.AsError(m); rerr != nil {
		_ = c.Close()
		return transport.Message{}, rerr
	}
	p.conns.Put(addr, c)
	return m, nil
}

// Watch requests a title from the home server and consumes the delivery
// stream.
func (p *Player) Watch(title string) (PlaybackStats, error) {
	return p.WatchFrom(title, 0)
}

// WatchFrom requests delivery starting at the given cluster index — the
// interactive-VoD seek operation. Cluster 0 is equivalent to Watch.
func (p *Player) WatchFrom(title string, startCluster int) (PlaybackStats, error) {
	if startCluster < 0 {
		return PlaybackStats{}, fmt.Errorf("negative start cluster %d", startCluster)
	}
	start := time.Now()
	stats, info, err := p.watchOnce(title, startCluster)
	if err != nil && p.resume && !isTerminalWatchErr(err) {
		stats, info, err = p.resumeLoop(title, startCluster, stats, info, err)
	}
	if err != nil {
		return stats, err
	}
	stats.Elapsed = time.Since(start)
	wantBytes := info.SizeBytes - int64(startCluster)*info.ClusterBytes
	if wantBytes < 0 {
		wantBytes = 0
	}
	if stats.BytesReceived != wantBytes {
		return stats, fmt.Errorf("received %d bytes, want %d", stats.BytesReceived, wantBytes)
	}
	p.accountPlayback(&stats, info, start)
	return stats, nil
}

// isTerminalWatchErr reports errors no resume can fix: the server refused
// the session by policy, not by failure. Redirect loops and over-long chains
// are terminal too — redialing the same front door reproduces the same
// chain — but a dead redirect target is not: the home will route around it
// on the next attempt.
func isTerminalWatchErr(err error) bool {
	var rej *RejectedError
	if errors.As(err, &rej) {
		return true
	}
	return errors.Is(err, ErrRedirectLoop) || errors.Is(err, ErrTooManyRedirects)
}

// resumeLoop re-requests the title's remaining clusters after a mid-stream
// failure until the watch completes, a terminal error arrives, or the retry
// budget drains. Every delivered cluster deposits into the budget, so long
// titles survive repeated transient faults while a hard outage fails fast.
func (p *Player) resumeLoop(title string, startCluster int, agg PlaybackStats,
	info transport.WatchOKPayload, lastErr error) (PlaybackStats, transport.WatchOKPayload, error) {
	budget := faults.NewRetryBudget(3, 0.1)
	for range agg.Records {
		budget.OnSuccess()
	}
	bo := faults.NewBackoff(25*time.Millisecond, 500*time.Millisecond, 2, int64(len(p.home)))
	for {
		if !budget.TryRetry() {
			return agg, info, fmt.Errorf("watch %q: resume budget exhausted: %w", title, lastErr)
		}
		time.Sleep(bo.Next())
		next := startCluster
		if n := len(agg.Records); n > 0 {
			next = agg.Records[n-1].Index + 1
		}
		if info.NumClusters > 0 && next >= info.NumClusters {
			// Every cluster arrived before the failure (it hit the trailing
			// watch.done frame); nothing is left to re-request.
			return agg, info, nil
		}
		agg.Retries++
		part, pinfo, err := p.watchOnce(title, next)
		for range part.Records {
			budget.OnSuccess()
		}
		mergeResumed(&agg, part)
		if pinfo.Title != "" {
			info = pinfo
		}
		if err == nil {
			return agg, info, nil
		}
		if isTerminalWatchErr(err) {
			return agg, info, err
		}
		lastErr = err
	}
}

// mergeResumed folds one resume attempt's partial stats into the running
// session view, counting a source change across the resume boundary as a
// switch.
func mergeResumed(agg *PlaybackStats, part PlaybackStats) {
	if agg.Title == "" && len(agg.Records) == 0 {
		// The first attempt died before its watch.ok; adopt the resumed
		// attempt wholesale (keeping the retry count).
		retries := agg.Retries
		*agg = part
		agg.Retries = retries
		return
	}
	if len(agg.Sources) > 0 && len(part.Sources) > 0 && agg.Sources[len(agg.Sources)-1] != part.Sources[0] {
		agg.Switches++
	}
	agg.Switches += part.Switches
	agg.BytesReceived += part.BytesReceived
	agg.Records = append(agg.Records, part.Records...)
	agg.Sources = append(agg.Sources, part.Sources...)
	agg.Verified = agg.Verified && part.Verified
	agg.Redirects += part.Redirects
	agg.RedirectPath = append(agg.RedirectPath, part.RedirectPath...)
	if part.Merged {
		agg.Merged = true
		agg.MergeRole = part.MergeRole
		agg.MergeCohort = part.MergeCohort
		agg.PatchClusters += part.PatchClusters
	}
	agg.PrefixClusters += part.PrefixClusters
	agg.RelayTail = agg.RelayTail || part.RelayTail
	agg.ReservationMigrations += part.ReservationMigrations
}

// watchOnce runs one watch exchange: request, headers, stream consumption.
// It returns the partial stats on failure so a resume can pick up from the
// first undelivered cluster. Elapsed, the byte-count check, and playback
// accounting belong to the caller, which may stitch several attempts. The
// connection goes back to the pool only after watch.done; any failure closes
// it.
func (p *Player) watchOnce(title string, startCluster int) (stats PlaybackStats, info transport.WatchOKPayload, err error) {
	ans, err := p.frontDoor(title, startCluster)
	if err != nil {
		return PlaybackStats{}, info, err
	}
	conn, head := ans.conn, ans.head
	defer func() {
		if err != nil {
			_ = conn.Close()
		} else {
			p.conns.Put(ans.addr, conn)
		}
	}()
	if rerr := transport.AsError(head); rerr != nil {
		return PlaybackStats{}, info, rerr
	}
	if head.Type == transport.TypeWatchReject {
		rej, err := transport.Decode[transport.WatchRejectPayload](head)
		if err != nil {
			return PlaybackStats{}, info, err
		}
		return PlaybackStats{}, info, &RejectedError{
			Title:      rej.Title,
			Class:      admission.Class(rej.Class),
			Reason:     rej.Reason,
			NeededMbps: rej.NeededMbps,
			FreeMbps:   rej.FreeMbps,
		}
	}
	if head.Type != transport.TypeWatchOK {
		return PlaybackStats{}, info, fmt.Errorf("unexpected reply %q", head.Type)
	}
	if info, err = transport.Decode[transport.WatchOKPayload](head); err != nil {
		return PlaybackStats{}, transport.WatchOKPayload{}, err
	}

	stats = PlaybackStats{
		Title:         info.Title,
		NumClusters:   info.NumClusters,
		Verified:      true,
		Class:         admission.Class(info.Class),
		Degraded:      info.Degraded,
		DeliveredMbps: info.DeliveredMbps,
		BinaryFraming: true,
		Redirects:     len(ans.bounces),
		RedirectPath:  ans.bounces,
	}
	var lastSource topology.NodeID
	for {
		m, payload, frame, err := conn.ReadClusterOrMessage(p.pool)
		if err != nil {
			return stats, info, err
		}
		if frame == nil {
			switch m.Type {
			case transport.TypeWatchDone:
				done, err := transport.Decode[transport.WatchDonePayload](m)
				if err != nil {
					return stats, info, err
				}
				stats.ReservationMigrations = done.Migrations
				return stats, info, nil
			case transport.TypeError:
				return stats, info, transport.AsError(m)
			default:
				return stats, info, fmt.Errorf("unexpected stream message %q", m.Type)
			}
		}
		switch frame.Type {
		case transport.FrameCluster:
			// The body aliases the pooled frame, so it is fully consumed
			// before Release.
			if err = nextCluster(info, startCluster+len(stats.Records), payload); err == nil {
				err = p.recordCluster(&stats, info.Title, payload, frame.Payload, &lastSource)
			}
		case transport.FrameMergeInfo:
			var mi transport.MergeInfoPayload
			if mi, err = transport.DecodeMergeInfoFrame(frame); err == nil {
				recordMergeInfo(&stats, mi)
			}
		case transport.FramePrefixAnnounce:
			var pi transport.PrefixAnnouncePayload
			if pi, err = transport.DecodePrefixAnnounceFrame(frame); err == nil {
				recordPrefixInfo(&stats, pi)
			}
		default:
			err = fmt.Errorf("unexpected stream frame 0x%02x", frame.Type)
		}
		frame.Release()
		if err != nil {
			return stats, info, err
		}
	}
}

// frontDoorAnswer is the first reply to a watch that is not a redirect, the
// connection it arrived on (owned by the caller), that server's address, and
// the redirect targets followed on the way.
type frontDoorAnswer struct {
	conn    *transport.Conn
	addr    string
	head    transport.Message
	bounces []topology.NodeID
}

// frontDoor sends the watch to the home and, while the answering node
// bounces it with a watch.redirect, follows — resends to the target with the
// advanced hop count — within the redirect limit and without revisiting a
// node. A session is bounced at most a handful of times before some server
// commits to serving it. A fully read redirect completes that exchange, so
// its connection goes back to the pool.
func (p *Player) frontDoor(title string, startCluster int) (frontDoorAnswer, error) {
	addr, err := p.book.Lookup(p.home)
	if err != nil {
		return frontDoorAnswer{}, err
	}
	var (
		hops    int
		bounces []topology.NodeID
		visited = map[topology.NodeID]bool{p.home: true}
		// hopErr describes the redirect being followed; nil at the home.
		hopErr *RedirectError
	)
	for {
		req, err := transport.Encode(transport.TypeWatch, transport.WatchPayload{
			Title:        title,
			StartCluster: startCluster,
			Class:        string(p.class),
			Hops:         hops,
		})
		if err != nil {
			return frontDoorAnswer{}, err
		}
		var head transport.Message
		conn, err := p.request(addr, req, func(c *transport.Conn) (err error) {
			head, err = c.ReadMessage()
			return err
		})
		if err != nil {
			if hopErr != nil {
				// The target died between the redirect decision and our dial:
				// a prompt typed error, never a hang — resume goes back to the
				// home, which routes around the corpse.
				hopErr.Err = err
				return frontDoorAnswer{}, hopErr
			}
			return frontDoorAnswer{}, err
		}
		if head.Type != transport.TypeWatchRedirect {
			return frontDoorAnswer{conn: conn, addr: addr, head: head, bounces: bounces}, nil
		}
		rd, err := transport.Decode[transport.WatchRedirectPayload](head)
		if err != nil {
			_ = conn.Close()
			return frontDoorAnswer{}, err
		}
		p.conns.Put(addr, conn)
		hopErr = &RedirectError{Title: title, Target: rd.Target, Addr: rd.Addr, Hops: rd.Hops}
		if p.redirectLimit < 0 || len(bounces) >= p.redirectLimit {
			hopErr.Err = ErrTooManyRedirects
			return frontDoorAnswer{}, hopErr
		}
		if visited[rd.Target] {
			hopErr.Err = ErrRedirectLoop
			return frontDoorAnswer{}, hopErr
		}
		visited[rd.Target] = true
		bounces = append(bounces, rd.Target)
		addr, hops = rd.Addr, rd.Hops
	}
}

// nextCluster checks that a delivered cluster is the one the stream owes
// next: the watched title's cluster at index next, at that index's offset,
// with that cluster's length. Content verification checks the bytes only
// against the offset the cluster claims, so a duplicate or skipped cluster
// would pass it.
func nextCluster(info transport.WatchOKPayload, next int, p transport.ClusterPayload) error {
	off := int64(next) * info.ClusterBytes
	want := transport.ClusterPayload{Title: info.Title, Index: next, Offset: off,
		Length: min(info.ClusterBytes, info.SizeBytes-off), Source: p.Source}
	if p != want {
		return fmt.Errorf("stream sent %q cluster %d (offset %d, %d bytes), want %q cluster %d (offset %d, %d bytes)",
			p.Title, p.Index, p.Offset, p.Length, want.Title, want.Index, want.Offset, want.Length)
	}
	return nil
}

// recordMergeInfo notes the server's stream-merging announcement. It is
// purely observational: merged and unmerged sessions receive the same
// in-order cluster stream.
func recordMergeInfo(stats *PlaybackStats, mi transport.MergeInfoPayload) {
	stats.Merged = true
	stats.MergeRole = mi.Role
	stats.MergeCohort = mi.Cohort
	stats.PatchClusters = mi.PatchClusters
}

// recordPrefixInfo notes the server's prefix-tier announcement — like
// merge.info it is purely observational and changes nothing about delivery.
func recordPrefixInfo(stats *PlaybackStats, pi transport.PrefixAnnouncePayload) {
	stats.PrefixClusters = pi.PrefixClusters
	stats.StartupRTTs = pi.StartupRTTs
	stats.RelayTail = pi.RelayTail
}

// recordCluster accounts one delivered cluster: length check, optional
// content verification, switch detection. Validation runs before the cluster
// is counted, so a torn or corrupt delivery leaves no record and a resumed
// session re-requests exactly that cluster. body may alias a pooled buffer;
// it is not retained.
func (p *Player) recordCluster(stats *PlaybackStats, title string, payload transport.ClusterPayload, body []byte, lastSource *topology.NodeID) error {
	if int64(len(body)) != payload.Length {
		return fmt.Errorf("cluster %d: got %d bytes, want %d",
			payload.Index, len(body), payload.Length)
	}
	if p.verify && !media.Verify(title, payload.Offset, body) {
		stats.Verified = false
		return fmt.Errorf("cluster %d failed content verification", payload.Index)
	}
	stats.Records = append(stats.Records, ClusterRecord{
		Index:     payload.Index,
		Length:    payload.Length,
		Source:    payload.Source,
		ArrivedAt: time.Now(),
	})
	stats.Sources = append(stats.Sources, payload.Source)
	stats.BytesReceived += int64(len(body))
	if *lastSource != "" && payload.Source != *lastSource {
		stats.Switches++
	}
	*lastSource = payload.Source
	return nil
}

// accountPlayback derives startup delay and stalls from cluster arrival
// times: playout starts at the first cluster's arrival and consumes each
// cluster over length·8/bitrate seconds; a late cluster stalls the playhead
// until it arrives. A degraded session plays the reduced rendition, so
// playout is paced at the delivered rate rather than the native one.
func (p *Player) accountPlayback(stats *PlaybackStats, info transport.WatchOKPayload, start time.Time) {
	rate := info.BitrateMbps
	if info.DeliveredMbps > 0 {
		rate = info.DeliveredMbps
	}
	if len(stats.Records) == 0 || rate <= 0 {
		return
	}
	stats.StartupDelay = stats.Records[0].ArrivedAt.Sub(start)
	playhead := stats.Records[0].ArrivedAt
	for _, rec := range stats.Records {
		if rec.ArrivedAt.After(playhead) {
			stats.Stalls++
			stats.StallTime += rec.ArrivedAt.Sub(playhead)
			playhead = rec.ArrivedAt
		}
		playDur := time.Duration(float64(rec.Length*8) / (rate * 1e6) * float64(time.Second))
		playhead = playhead.Add(playDur)
	}
}
