// Package server implements a live video server node: it answers catalog
// queries, serves stored clusters to peers, and — as a client's home server —
// orchestrates whole-title delivery by running the DMA for local popularity
// caching and the VRA (via the planner) to fetch non-resident clusters from
// the momentarily optimal peer, switching peers between clusters when the
// optimum moves.
//
// The delivery hot path is zero-copy: a locally stored cluster is a pinned
// block file that goes to the socket with sendfile on Linux, and a cluster
// pulled from a peer (whose origin sent it the same way, asked by a binary
// cluster.get) is spliced from the peer's socket into a pooled kernel pipe
// and from there into the client's socket, never entering Go memory, with or
// without an armed fault injector, which gates the peer socket rather than
// wrapping it. Where no splice path exists — a test pipe, a !linux build —
// the pulled cluster lands in a buffer leased from a transport.BufferPool
// instead. Either is written to the wire as a binary
// cluster frame — no JSON marshal and no per-cluster allocation. A session
// (watch or relay.join) is served only on a connection whose hello was
// granted binary frames (transport.TypeHello). Per-server delivery volume
// surfaces as the server.bytes_out / server.frames_out counters next to the
// pool's hit/miss counters on GET /metrics.
//
// With Config.MergeWindow > 0 the server additionally merges shared-prefix
// streams: concurrent Watch sessions of one title whose positions overlap
// within the window share a single cohort base stream — one disk read (or
// peer fetch) per cluster, fanned out through ref-counted frame leases —
// while late joiners are privately patched up to their join position
// (internal/merge). A hot title then costs the origin one stream per cohort
// instead of one per viewer.
package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvod/internal/admission"
	"dvod/internal/cache"
	"dvod/internal/clock"
	"dvod/internal/core"
	"dvod/internal/db"
	"dvod/internal/disk"
	"dvod/internal/faults"
	"dvod/internal/ledger"
	"dvod/internal/media"
	"dvod/internal/merge"
	"dvod/internal/metrics"
	"dvod/internal/prefix"
	"dvod/internal/striping"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// Config assembles a video server node.
type Config struct {
	// Node is the topology node this server runs at.
	Node topology.NodeID
	// DB is the shared database module.
	DB *db.DB
	// Planner runs the routing policy for remote fetches.
	Planner *core.Planner
	// Array is the local disk array.
	Array *disk.Array
	// Cache is the local title cache (normally the DMA) over Array.
	Cache cache.Policy
	// ClusterBytes is the delivery/striping cluster size c.
	ClusterBytes int64
	// Book resolves peer nodes to TCP endpoints.
	Book *transport.AddrBook
	// Counters optionally charges delivered bytes to topology links so
	// the live SNMP estimator can observe traffic. May be nil.
	Counters *transport.Counters
	// ListenAddr defaults to "127.0.0.1:0".
	ListenAddr string
	// Clock stamps database updates; nil defaults to the wall clock.
	Clock clock.Clock
	// Metrics receives request counters; nil allocates a private registry.
	Metrics *metrics.Registry
	// IdleTimeout closes client connections that send no request for this
	// long; zero defaults to 2 minutes.
	IdleTimeout time.Duration
	// Broker optionally enforces admission control: every Watch session
	// must obtain a bandwidth grant (possibly degraded) before delivery
	// starts, and cluster-boundary re-plans skip routes without residual
	// headroom. Nil serves best-effort, as the paper does.
	Broker *admission.Broker
	// MaxConns bounds concurrently handled connections, so handler
	// goroutines cannot grow without bound under a connection flood. When
	// every slot is taken, a newly accepted connection evicts the one parked
	// idle longest between requests, and waits for a free slot only when
	// none is parked. Zero defaults to 256.
	MaxConns int
	// Pool recycles cluster-body buffers across deliveries (the zero-copy
	// pipeline); nil allocates a pool reporting into Metrics.
	Pool *transport.BufferPool
	// MergeWindow enables shared-prefix stream merging when positive:
	// concurrent Watch sessions of one title within MergeWindow clusters of
	// each other coalesce onto one base stream, and each cluster is read
	// once and fanned out instead of once per viewer (late joiners get the
	// gap as a private patch stream). Zero disables merging and every
	// session reads privately, as the paper does.
	MergeWindow int
	// MergeQueueDepth overrides the per-session broadcast queue bound
	// (merge.Config.QueueDepth); zero uses the merge layer's default.
	MergeQueueDepth int
	// Faults optionally interposes the deterministic fault injector on this
	// server's peer-fetch path: scheduled dial refusals before connecting and
	// a gate on each dialed socket that the injector can cut or stall
	// mid-cluster. Nil fetches without interposition.
	Faults *faults.Injector
	// Ledger optionally serves this node's replica of the gossip-replicated
	// reservation ledger: peers' ledger-sync frames are merged and answered
	// here, alongside the broker that reads the replica before granting. Nil
	// refuses ledger.sync requests.
	Ledger *ledger.Ledger
	// DisableDefense switches off the self-healing delivery path — per-peer
	// circuit breakers and hedged fetches — leaving only the bare
	// next-replica retry loop. The chaos study's control arm; production
	// configs leave it false.
	DisableDefense bool
	// Director optionally fronts the watch path with the stateless redirect
	// door: before admitting a session, the server asks it whether a
	// better-placed peer should serve this title and, if so, answers with a
	// typed watch.redirect instead of streaming. Nil serves every watch
	// locally, exactly as before.
	Director Director
	// Members optionally serves this node's membership view: peers'
	// member.sync exchanges are merged and answered here (normally a
	// membership.Tracker). Nil refuses member.sync requests.
	Members MemberView
	// MemberProbe performs one liveness probe on behalf of a member.ping-req
	// sender: reach the target node at addr and report nil when it answers.
	// Nil answers every ping-req with OK=false (no second opinion — the
	// asker falls back to its direct evidence).
	MemberProbe func(target topology.NodeID, addr string) error
	// Prefix optionally serves the popularity-weighted prefix tier: clusters
	// inside a title's pinned prefix are read from the local prefix store —
	// zero cross-network fetches — before the remote delivery path is even
	// planned, on every path that obtains clusters (watch start, late-joiner
	// patches, post-eviction unicast tails). Nil disables the tier.
	Prefix *prefix.Manager
	// RelayCohorts extends stream merging across servers: when a merged
	// cohort is created here for a non-resident title, its source opens ONE
	// relay.join subscription to the title's holder and fans that stream to
	// every local watcher, instead of issuing per-cluster peer fetches. On
	// the holder's side relay sessions join its own merge registry, so N
	// relay servers share one origin disk-read stream. Requires MergeWindow.
	RelayCohorts bool
}

// relayHoldDown is the aggregation hold-down applied to cohorts created for
// incoming relay.join sessions: the cohort's pump waits this long before its
// first read, so a flash crowd of downstream relays dialing within the hold
// all batch onto the base stream with zero patch clusters (VoD batching).
// Long enough to batch a burst of dials even when the downstream servers'
// sessions are queueing on loaded cores; it delays only the shared tail (a
// relay dials at session start, while its watchers play their pinned
// prefixes) and never an interactive watch. The merge registry skips it for
// a title whose last held cohort served a single relay.
const relayHoldDown = 250 * time.Millisecond

// maxPipes bounds the server's pipe pool: one pipe carries one pulled
// cluster from the reply read to the client send, so this many pulls (hedges
// included) can be in flight without a copy, at two descriptors each. Pulls
// beyond it read through the pooled copy.
const maxPipes = 64

// Director is the redirect decision hook (implemented by
// membership.Director). Route reports the peer a watch for title — already
// bounced hops times — should be redirected to, or ok=false to serve
// locally.
type Director interface {
	Route(title string, hops int) (target topology.NodeID, addr string, ok bool)
}

// MemberView answers membership gossip (implemented by membership.Tracker):
// merge the remote view, return the merged local view, or refuse a
// malformed request.
type MemberView interface {
	HandleSync(req transport.MemberSyncPayload) (transport.MemberSyncPayload, error)
}

// Server is one running video server node.
type Server struct {
	cfg     Config
	ln      net.Listener
	connSem chan struct{}
	// merges tracks live stream-merging cohorts; nil when MergeWindow is 0.
	merges *merge.Registry
	// breakers and hedgeLat are the self-healing state of the peer-fetch
	// path; both nil when DisableDefense is set.
	breakers *faults.BreakerSet
	hedgeLat *faults.LatencyTracker
	// peers holds this server's idle outbound peer connections, keyed by
	// peer and route (see peerConnKey); fetchRemoteCluster is its only user.
	peers *transport.ConnPool
	// pipes carries pulled cluster bodies from a peer's socket to a
	// client's (see fetchRemoteCluster); Close closes it.
	pipes *transport.PipePool

	// parkSig wakes an accept loop waiting for a handler slot whenever a
	// handler parks: its connection can now be evicted for the new one.
	parkSig chan struct{}

	mu     sync.Mutex
	closed bool
	// parked maps each accepted connection waiting between requests to
	// when it parked; Close closes them so their handlers do not sit out the
	// idle timeout, and a full accept loop evicts the oldest.
	parked map[*transport.Conn]time.Time
	wg     sync.WaitGroup
}

// New validates the configuration.
func New(cfg Config) (*Server, error) {
	switch {
	case cfg.Node == "":
		return nil, errors.New("server: empty node")
	case cfg.DB == nil:
		return nil, errors.New("server: nil db")
	case cfg.Planner == nil:
		return nil, errors.New("server: nil planner")
	case cfg.Array == nil:
		return nil, errors.New("server: nil array")
	case cfg.Cache == nil:
		return nil, errors.New("server: nil cache")
	case cfg.ClusterBytes <= 0:
		return nil, fmt.Errorf("server: bad cluster size %d", cfg.ClusterBytes)
	case cfg.Book == nil:
		return nil, errors.New("server: nil address book")
	}
	if !cfg.DB.Graph().HasNode(cfg.Node) {
		return nil, fmt.Errorf("server: %w: %s", topology.ErrNodeUnknown, cfg.Node)
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.IdleTimeout < 0 {
		return nil, fmt.Errorf("server: negative idle timeout %v", cfg.IdleTimeout)
	}
	if cfg.MaxConns < 0 {
		return nil, fmt.Errorf("server: negative connection cap %d", cfg.MaxConns)
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 256
	}
	if cfg.Pool == nil {
		cfg.Pool = transport.NewBufferPool(cfg.Metrics)
	}
	if cfg.MergeWindow < 0 {
		return nil, fmt.Errorf("server: negative merge window %d", cfg.MergeWindow)
	}
	if cfg.RelayCohorts && cfg.MergeWindow <= 0 {
		return nil, errors.New("server: relay cohorts require a merge window")
	}
	srv := &Server{
		cfg:     cfg,
		connSem: make(chan struct{}, cfg.MaxConns),
		// Half the idle timeout: a pooled connection is retired well before
		// the peer's handler (same timeout) would hang up on it.
		peers:   transport.NewConnPool(cfg.IdleTimeout / 2),
		pipes:   transport.NewPipePool(cfg.Metrics, maxPipes, cfg.ClusterBytes),
		parkSig: make(chan struct{}, 1),
		parked:  make(map[*transport.Conn]time.Time),
	}
	if !cfg.DisableDefense {
		srv.breakers = faults.NewBreakerSet(faults.BreakerConfig{
			Clock:   cfg.Clock,
			Metrics: cfg.Metrics,
		})
		srv.hedgeLat = faults.NewLatencyTracker(0)
	}
	if cfg.MergeWindow > 0 {
		m, err := merge.NewRegistry(merge.Config{
			Window:     cfg.MergeWindow,
			QueueDepth: cfg.MergeQueueDepth,
			Metrics:    cfg.Metrics,
		})
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		srv.merges = m
	}
	return srv, nil
}

// Node returns the server's topology node.
func (s *Server) Node() topology.NodeID { return s.cfg.Node }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *metrics.Registry { return s.cfg.Metrics }

// Start listens, registers the endpoint in the address book, and begins
// accepting connections.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("server %s listen: %w", s.cfg.Node, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return errors.New("server already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.cfg.Book.Set(s.cfg.Node, ln.Addr().String())
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the listening endpoint ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops accepting, closes the listener, the idle peer-connection pool
// and every accepted connection parked between requests, waits for in-flight
// handlers to finish, and closes the pipe pool. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	parked := s.parked
	s.parked = nil
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.peers.Close()
	// A parked handler is blocked reading the next request under the idle
	// timeout (peers pool their connections to us, so there are always
	// some); closing the connection fails that read now.
	for c := range parked {
		_ = c.Close()
	}
	s.wg.Wait()
	s.pipes.Close()
	return err
}

// ClosePeerConns closes the idle outbound peer connections, so the peers'
// handlers serving them see EOF and exit. A fleet shutdown calls it on every
// server before closing any: no server then waits on a handler that another
// server's pool keeps parked. Fetches still in flight finish and close their
// connection instead of pooling it.
func (s *Server) ClosePeerConns() { s.peers.Close() }

// park registers c as waiting between requests, or reports false when the
// server is closed and the handler must exit. Registration and Close's sweep
// are ordered by s.mu: either the handler sees closed, or Close sees (and
// closes) the parked connection — a handler can never start an idle wait
// that Close does not interrupt.
func (s *Server) park(c *transport.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.parked[c] = time.Now()
	select {
	case s.parkSig <- struct{}{}:
	default:
	}
	return true
}

// unpark marks c as serving a request: Close lets it finish.
func (s *Server) unpark(c *transport.Conn) {
	s.mu.Lock()
	delete(s.parked, c)
	s.mu.Unlock()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Take a handler slot before spawning: under a connection flood
		// the excess connections queue in the listen backlog instead of
		// each pinning a goroutine.
		s.acquireSlot()
		s.wg.Add(1)
		go func() {
			defer func() {
				<-s.connSem
				s.wg.Done()
			}()
			s.handleConn(transport.NewConn(nc))
		}()
	}
}

// acquireSlot takes a handler slot for a newly accepted connection. When
// every slot is taken it closes the connection parked longest instead of
// waiting: clients and peers keep their connections open between requests,
// so parked handlers would otherwise lock new connections out until the
// idle timeout. The evicted client sees a stale connection and redials. With
// nothing parked it waits until a handler exits or parks.
func (s *Server) acquireSlot() {
	for {
		select {
		case s.connSem <- struct{}{}:
			return
		default:
		}
		if s.evictParked() {
			// The evicted handler's read fails at once and frees its slot.
			s.connSem <- struct{}{}
			return
		}
		select {
		case s.connSem <- struct{}{}:
			return
		case <-s.parkSig:
		}
	}
}

// evictParked closes the connection that has been parked longest, reporting
// false when none is.
func (s *Server) evictParked() bool {
	s.mu.Lock()
	var (
		oldest *transport.Conn
		since  time.Time
	)
	for c, t := range s.parked {
		if oldest == nil || t.Before(since) {
			oldest, since = c, t
		}
	}
	delete(s.parked, oldest)
	s.mu.Unlock()
	if oldest == nil {
		return false
	}
	_ = oldest.Close()
	s.cfg.Metrics.Counter("server.idle_evictions").Inc()
	return true
}

// handleConn serves control messages on one connection until EOF or a
// framing error.
func (s *Server) handleConn(c *transport.Conn) {
	defer c.Close()
	for {
		if !s.park(c) {
			return
		}
		// Idle clients are disconnected rather than pinning a handler
		// goroutine forever.
		_ = c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		m, f, err := c.ReadFrameOrMessage(s.cfg.Pool)
		s.unpark(c)
		if err != nil {
			return
		}
		_ = c.SetReadDeadline(time.Time{})
		if f != nil {
			// A peer initiates three kinds of binary frame: cluster.get,
			// and ledger and membership syncs (the gossip anti-entropy
			// exchanges).
			var err error
			switch f.Type {
			case transport.FrameClusterGet:
				var req transport.ClusterGetPayload
				if req, err = transport.DecodeClusterGetFrame(f); err == nil {
					s.cfg.Metrics.Counter("server.requests").Inc()
					err = s.serveClusterGet(c, req)
				}
			case transport.FrameLedgerSync:
				err = s.handleLedgerSyncFrame(c, f)
			case transport.FrameMemberSync:
				err = s.handleMemberSyncFrame(c, f)
			default:
				err = fmt.Errorf("unexpected binary frame 0x%02x", f.Type)
			}
			f.Release()
			if err != nil {
				s.cfg.Metrics.Counter("server.errors").Inc()
				if werr := c.WriteError(err.Error()); werr != nil {
					return
				}
			}
			continue
		}
		if err := s.dispatch(c, m); err != nil {
			s.cfg.Metrics.Counter("server.errors").Inc()
			if werr := c.WriteError(err.Error()); werr != nil {
				return
			}
		}
	}
}

func (s *Server) dispatch(c *transport.Conn, m transport.Message) error {
	s.cfg.Metrics.Counter("server.requests").Inc()
	switch m.Type {
	case transport.TypePing:
		pong, err := transport.Encode(transport.TypePong, nil)
		if err != nil {
			return err
		}
		return c.WriteMessage(pong)
	case transport.TypeHello:
		return c.AcceptHello(m)
	case transport.TypeTitles:
		return s.handleTitles(c)
	case transport.TypeHolders:
		return s.handleHolders(c, m)
	case transport.TypeClusterGet:
		return s.handleClusterGet(c, m)
	case transport.TypeWatch, transport.TypeRelayJoin:
		// A session streams binary frames only: refused before the front
		// door, admission or the DMA hear of it.
		if !c.BinaryFrames() {
			return fmt.Errorf("%s needs %s", m.Type, transport.CapClusterFrames)
		}
		if m.Type == transport.TypeWatch {
			return s.handleWatch(c, m)
		}
		return s.handleRelay(c, m)
	case transport.TypeMemberPingReq:
		return s.handleMemberPingReq(c, m)
	default:
		return fmt.Errorf("unknown message type %q", m.Type)
	}
}

func (s *Server) handleTitles(c *transport.Conn) error {
	all := s.cfg.DB.Catalog().Titles()
	payload := transport.TitlesPayload{Titles: make([]transport.TitleInfo, 0, len(all))}
	for _, t := range all {
		payload.Titles = append(payload.Titles, transport.TitleInfo{
			Name:        t.Name,
			SizeBytes:   t.SizeBytes,
			BitrateMbps: t.BitrateMbps,
			Resident:    s.cfg.Cache.Resident(t.Name),
		})
	}
	m, err := transport.Encode(transport.TypeTitlesOK, payload)
	if err != nil {
		return err
	}
	return c.WriteMessage(m)
}

// handleHolders answers which servers hold a title, with the delivery
// parameters parallel fetchers need.
func (s *Server) handleHolders(c *transport.Conn, m transport.Message) error {
	req, err := transport.Decode[transport.HoldersPayload](m)
	if err != nil {
		return err
	}
	title, err := s.cfg.DB.Catalog().Title(req.Title)
	if err != nil {
		return err
	}
	// Read-only holder view: the list is only encoded onto the wire, so the
	// catalog's lock-free shared slice is safe here.
	holders, err := s.cfg.DB.Catalog().HoldersView(req.Title)
	if err != nil {
		return err
	}
	numClusters, err := s.numClusters(title)
	if err != nil {
		return err
	}
	resp, err := transport.Encode(transport.TypeHoldersOK, transport.HoldersOKPayload{
		Title:        title.Name,
		SizeBytes:    title.SizeBytes,
		BitrateMbps:  title.BitrateMbps,
		ClusterBytes: s.cfg.ClusterBytes,
		NumClusters:  numClusters,
		Holders:      holders,
	})
	if err != nil {
		return err
	}
	return c.WriteMessage(resp)
}

// handleClusterGet answers a JSON cluster.get, the one cluster exchange a
// connection that never sent a hello is still served; peers send the binary
// FrameClusterGet.
func (s *Server) handleClusterGet(c *transport.Conn, m transport.Message) error {
	req, err := transport.Decode[transport.ClusterGetPayload](m)
	if err != nil {
		return err
	}
	return s.serveClusterGet(c, req)
}

// serveClusterGet serves one locally stored cluster to a peer or client.
func (s *Server) serveClusterGet(c *transport.Conn, req transport.ClusterGetPayload) error {
	frame, payload, err := s.readLocalCluster(req.Title, req.Index)
	if err != nil {
		return err
	}
	defer frame.Release()
	s.cfg.Metrics.Counter("server.clusters_served").Inc()
	s.cfg.Metrics.Counter("server.bytes_served").Add(payload.Length)
	return s.sendCluster(c, transport.TypeClusterOK, payload, frame)
}

// sendCluster writes one cluster on the negotiated framing via
// transport.WriteClusterBody: file-backed bodies go out on the kernel path
// (sendfile) when the platform and stream support it, byte-backed or
// refused bodies through the pooled copy, and a hello-less cluster.get's
// reply as msgType + raw body. Delivery volume is charged to the
// bytes-out/frames-out counters either way, and each send lands in
// server.kernel_sends or server.fallback_sends according to the path
// actually taken.
//
// Counter semantics: server.frames_out and server.bytes_out count per-client
// deliveries — every handler that puts a cluster on a wire charges them,
// including the fan-out copies of one merged base-stream read. Disk work is
// the separate server.disk_reads / server.disk_bytes pair (and
// server.remote_clusters for peer fetches); with stream merging active the
// two deliberately diverge, and their ratio is the fan-out amplification.
func (s *Server) sendCluster(c *transport.Conn, msgType string, payload transport.ClusterPayload, body *transport.Frame) error {
	kernel, err := c.WriteClusterBody(s.cfg.Pool, msgType, payload, body)
	if err != nil {
		return err
	}
	if kernel {
		s.cfg.Metrics.Counter("server.kernel_sends").Inc()
	} else {
		s.cfg.Metrics.Counter("server.fallback_sends").Inc()
	}
	s.cfg.Metrics.Counter("server.frames_out").Inc()
	s.cfg.Metrics.Counter("server.bytes_out").Add(body.BodyLen())
	return nil
}

// numClusters is how many delivery clusters title has at this server's
// cluster size.
func (s *Server) numClusters(title media.Title) (int, error) {
	layout, err := striping.NewLayout(title, s.cfg.ClusterBytes, 1)
	if err != nil {
		return 0, err
	}
	return layout.NumParts(), nil
}

// readLocalCluster fetches one cluster of a DMA-resident title from the
// local array (see readStored), charged to server.disk_reads/disk_bytes.
func (s *Server) readLocalCluster(title string, index int) (*transport.Frame, transport.ClusterPayload, error) {
	layout, ok := s.cfg.Cache.Layout(title)
	if !ok {
		return nil, transport.ClusterPayload{}, fmt.Errorf("title %q not resident on %s", title, s.cfg.Node)
	}
	return s.readStored(s.cfg.Array, layout, title, index, "server.disk_reads", "server.disk_bytes")
}

// readStored reads one stored cluster of title, laid out on arr by layout —
// the DMA's array or the prefix store's — as a transport frame the caller
// must Release, and charges the caller's reads/bytes counter pair. These
// count disk work, distinct from the per-client frames_out / bytes_out pair:
// merged fan-out multiplies deliveries, not reads. When the block has a file
// (a file-backed array, or any array on Linux) and no fault interceptor is
// armed, the frame pins the block's descriptor (disk.FileRef) and carries no
// bytes at all — sendCluster streams it with sendfile, moving the same bytes
// off the same disk. Otherwise the part is copied into a pool-leased buffer.
func (s *Server) readStored(arr *disk.Array, layout striping.Layout, title string, index int, reads, bytes string) (*transport.Frame, transport.ClusterPayload, error) {
	off, length, err := layout.PartRange(index)
	if err != nil {
		return nil, transport.ClusterPayload{}, err
	}
	payload := transport.ClusterPayload{
		Title:  title,
		Index:  index,
		Offset: off,
		Length: length,
		Source: s.cfg.Node,
	}
	var frame *transport.Frame
	if ref, ok := striping.PartFileRef(arr, layout, index); ok && ref.Size() == length {
		frame = transport.NewFileFrame(ref.File(), ref.Offset(), ref.Size(), ref.Close)
	} else {
		if ok {
			// A stored size disagreeing with the layout is store corruption;
			// release the pin and let the copy path surface the typed error.
			ref.Close()
		}
		buf := s.cfg.Pool.Get(int(length))
		n, err := striping.ReadPartInto(arr, layout, index, buf)
		if err != nil {
			s.cfg.Pool.Put(buf)
			return nil, transport.ClusterPayload{}, fmt.Errorf("read cluster %d of %q: %w", index, title, err)
		}
		if int64(n) != length {
			s.cfg.Pool.Put(buf)
			return nil, transport.ClusterPayload{}, fmt.Errorf("cluster %d of %q: read %d bytes, layout says %d", index, title, n, length)
		}
		frame = transport.NewLeasedFrame(s.cfg.Pool, buf)
	}
	s.cfg.Metrics.Counter(reads).Inc()
	s.cfg.Metrics.Counter(bytes).Add(length)
	return frame, payload, nil
}

// handleLedgerSyncFrame answers one ledger gossip exchange: merge the peer's
// delta, reply with ours as a ledger-sync frame flagged as the reply.
func (s *Server) handleLedgerSyncFrame(c *transport.Conn, f *transport.Frame) error {
	if s.cfg.Ledger == nil {
		return fmt.Errorf("no reservation ledger on %s", s.cfg.Node)
	}
	req, err := transport.DecodeLedgerSyncFrame(f)
	if err != nil {
		return err
	}
	s.cfg.Metrics.Counter("server.ledger_syncs").Inc()
	return c.WriteLedgerSyncFrame(s.cfg.Ledger.HandleSync(req), true)
}

// handleMemberSyncFrame answers one membership gossip exchange: merge the
// peer's view, reply with the merged local view as a member-sync frame
// flagged as the reply (push-pull anti-entropy, the same shape as the
// reservation ledger's sync).
func (s *Server) handleMemberSyncFrame(c *transport.Conn, f *transport.Frame) error {
	if s.cfg.Members == nil {
		return fmt.Errorf("no membership view on %s", s.cfg.Node)
	}
	req, err := transport.DecodeMemberSyncFrame(f)
	if err != nil {
		return err
	}
	reply, err := s.cfg.Members.HandleSync(req)
	if err != nil {
		return err
	}
	s.cfg.Metrics.Counter("server.member_syncs").Inc()
	_, err = c.WriteMemberSyncFrame(reply, true)
	return err
}

// handleMemberPingReq probes a third node on a peer's behalf: the indirect
// leg of the membership failure detector. The answer is advisory — OK only
// when this node actually reached the target just now.
func (s *Server) handleMemberPingReq(c *transport.Conn, m transport.Message) error {
	req, err := transport.Decode[transport.MemberPingReqPayload](m)
	if err != nil {
		return err
	}
	s.cfg.Metrics.Counter("server.member_ping_reqs").Inc()
	ok := false
	if s.cfg.MemberProbe != nil && req.Target != "" {
		ok = s.cfg.MemberProbe(req.Target, req.Addr) == nil
	}
	resp, err := transport.Encode(transport.TypeMemberPingAck, transport.MemberPingAckPayload{
		Target: req.Target,
		OK:     ok,
	})
	if err != nil {
		return err
	}
	return c.WriteMessage(resp)
}

// watchSession carries one Watch session's delivery state through the
// streaming paths: the admitted rate and grant, and the count of reservation
// migrations performed when the VRA re-planned the session across a cluster
// boundary.
type watchSession struct {
	planRate   float64
	grant      *admission.Grant
	migrations atomic.Int32
	// holdDown is the aggregation hold-down a cohort created by this session
	// applies before its first read; set for relay.join sessions only, so a
	// burst of downstream relays batches onto one base stream.
	holdDown time.Duration
}

// migrateReservation follows a routing switch with the session's bandwidth
// reservation: the old route's links are released and the new route's
// reserved, in the broker and (through it) the replicated ledger. Shared
// grants are left alone — the cohort group owns those reservations and
// member sessions do not steer them.
func (s *Server) migrateReservation(ws *watchSession, links []topology.LinkID) {
	if ws == nil || ws.grant == nil || ws.grant.Shared() || s.cfg.Broker == nil {
		return
	}
	if s.cfg.Broker.Migrate(ws.grant, links) {
		ws.migrations.Add(1)
		s.cfg.Metrics.Counter("server.reservation_migrations").Inc()
	}
}

// handleWatch orchestrates whole-title delivery to a client homed here.
func (s *Server) handleWatch(c *transport.Conn, m transport.Message) error {
	req, err := transport.Decode[transport.WatchPayload](m)
	if err != nil {
		return err
	}
	// The stateless front door runs before admission or any cache mutation:
	// a redirected request must leave no trace here — no popularity count,
	// no grant — because the target node will do all of that itself.
	if s.cfg.Director != nil {
		if target, addr, ok := s.cfg.Director.Route(req.Title, req.Hops); ok {
			s.cfg.Metrics.Counter("server.watch_redirects").Inc()
			resp, err := transport.Encode(transport.TypeWatchRedirect, transport.WatchRedirectPayload{
				Title:  req.Title,
				Target: target,
				Addr:   addr,
				Hops:   req.Hops + 1,
			})
			if err != nil {
				return err
			}
			return c.WriteMessage(resp)
		}
	}
	title, numClusters, err := s.sessionTitle(req.Title, req.StartCluster)
	if err != nil {
		return err
	}
	// Admission control runs before any cache mutation: a refused session
	// must leave no trace in the DMA's popularity counts.
	grant, rejected, err := s.admitWatch(c, req, title, numClusters)
	if err != nil || rejected {
		return err
	}
	ws := &watchSession{grant: grant}
	if grant != nil {
		defer s.cfg.Broker.Release(grant)
		ws.planRate = grant.BitrateMbps
	}
	err = s.serveSession(c, title, numClusters, req.StartCluster, ws, func(outcome cache.Outcome) error {
		if outcome.Admitted {
			s.cfg.Metrics.Counter("server.dma_admissions").Inc()
		}
		if outcome.Hit {
			s.cfg.Metrics.Counter("server.dma_hits").Inc()
		}
		if s.cfg.Prefix == nil {
			return nil
		}
		return s.queuePrefixInfo(c, title.Name, numClusters, req.StartCluster)
	})
	if err != nil {
		return err
	}
	s.cfg.Metrics.Counter("server.watches").Inc()
	return nil
}

// sessionTitle resolves the title a session names and its cluster count, and
// checks the start cluster. Both entry points call it before admission and
// before the DMA hears of the session, so a malformed request leaves no
// trace: no popularity point, no admission or eviction.
func (s *Server) sessionTitle(name string, start int) (media.Title, int, error) {
	title, err := s.cfg.DB.Catalog().Title(name)
	if err != nil {
		return media.Title{}, 0, err
	}
	numClusters, err := s.numClusters(title)
	if err != nil {
		return media.Title{}, 0, err
	}
	if start < 0 || start >= numClusters {
		return media.Title{}, 0, fmt.Errorf("start cluster %d outside [0, %d)", start, numClusters)
	}
	return title, numClusters, nil
}

// serveSession is the one body every session runs, a player's watch and a
// downstream relay's relay.join alike, once its entry point has resolved the
// title and (for a watch) admitted it. The DMA counts the request and may
// admit or evict titles; the outcome is mirrored into the shared database so
// every planner sees it. Then watch.ok is queued — with the grant's fields
// when the session holds one — and announce runs with the DMA outcome: the
// entry point's own counters and queued announcements go there. Then
// [start, numClusters) goes out through the one stream loop, and watch.done
// closes the session.
func (s *Server) serveSession(c *transport.Conn, title media.Title, numClusters, start int, ws *watchSession,
	announce func(cache.Outcome) error) error {
	outcome, err := s.cfg.Cache.OnRequest(title)
	if err != nil {
		return fmt.Errorf("dma: %w", err)
	}
	now := s.cfg.Clock.Now()
	for _, ev := range outcome.Evicted {
		if err := s.cfg.DB.SetHolding(s.cfg.Node, ev, false, now); err != nil {
			return err
		}
	}
	if outcome.Admitted {
		if err := s.cfg.DB.SetHolding(s.cfg.Node, title.Name, true, now); err != nil {
			return err
		}
	}
	ok := transport.WatchOKPayload{
		Title:        title.Name,
		SizeBytes:    title.SizeBytes,
		BitrateMbps:  title.BitrateMbps,
		ClusterBytes: s.cfg.ClusterBytes,
		NumClusters:  numClusters,
	}
	if g := ws.grant; g != nil {
		ok.Class = string(g.Class)
		ok.DeliveredMbps = g.BitrateMbps
		ok.Degraded = g.Degraded
	}
	head, err := transport.Encode(transport.TypeWatchOK, ok)
	if err != nil {
		return err
	}
	// Queued, not written: watch.ok (and the prefix and merge announcements
	// queued after it) ride the first cluster's writev as one syscall. Every
	// later write — cluster, error, watch.done — flushes the queue first, so
	// the wire order is unchanged on all paths.
	if err := c.QueueMessage(head); err != nil {
		return err
	}
	if err := announce(outcome); err != nil {
		return err
	}
	if err := s.stream(c, title, numClusters, start, ws); err != nil {
		return err
	}
	done, err := transport.Encode(transport.TypeWatchDone, transport.WatchDonePayload{
		Migrations: int(ws.migrations.Load()),
	})
	if err != nil {
		return err
	}
	return c.WriteMessage(done)
}

// admitWatch consults the bandwidth broker for one watch request. It
// returns (grant, false, nil) on admission, (nil, true, nil) after writing a
// typed rejection or busy frame, and (nil, false, nil) when no broker is
// configured. The session-rate and session-count limits surface as the
// typed "server busy" error; bandwidth exhaustion surfaces as a
// TypeWatchReject response carrying the broker's reason.
func (s *Server) admitWatch(c *transport.Conn, req transport.WatchPayload, title media.Title, numClusters int) (*admission.Grant, bool, error) {
	if s.cfg.Broker == nil {
		return nil, false, nil
	}
	class, err := admission.ParseClass(req.Class)
	if err != nil {
		return nil, false, err
	}
	// Plan a tentative route so the broker can reserve the session's
	// bitrate on the links it will cross. Local service needs no links; a
	// failed plan falls back to a node-level-only reservation rather than
	// refusing outright (the per-cluster re-plan may still find a route).
	// The tail plan is offset by the pinned prefix: when K reaches the end
	// of the title there is no tail left to fetch, so no links to reserve.
	var links []topology.LinkID
	if !s.cfg.Cache.Resident(title.Name) && s.prefixHead(title.Name, numClusters, req.StartCluster) < numClusters {
		if dec, err := s.cfg.Planner.PlanBandwidth(s.cfg.Node, title.Name, title.BitrateMbps, nil); err == nil && !dec.Local {
			links = dec.Path.Links()
		}
	}
	areq := admission.Request{
		Class:       class,
		Title:       title.Name,
		BitrateMbps: title.BitrateMbps,
		Links:       links,
	}
	var grant *admission.Grant
	if s.merges != nil {
		// Merged sessions share one delivery stream per cohort, so they
		// commit shared — not additive — bandwidth: the first watcher of a
		// title reserves the full rate and later ones attach for free. The
		// group is keyed by title (a conservative coarsening of the cohort,
		// which does not exist until after admission); sessions that end up
		// in separate cohorts of one title briefly under-reserve, which the
		// SNMP-fed link estimator absorbs the way it absorbs any unreserved
		// traffic.
		grant, err = s.cfg.Broker.AdmitWaitShared(areq, "watch:"+title.Name)
	} else {
		grant, err = s.cfg.Broker.AdmitWait(areq)
	}
	if err == nil {
		return grant, false, nil
	}
	var rej *admission.RejectedError
	if !errors.As(err, &rej) {
		return nil, false, err
	}
	switch rej.Reason {
	case admission.ReasonSessions:
		s.cfg.Metrics.Counter("server.watch_busy").Inc()
		return nil, true, c.WriteErrorCode(rej.Error(), transport.CodeBusy)
	default:
		s.cfg.Metrics.Counter("server.watch_rejects").Inc()
		m, eerr := transport.Encode(transport.TypeWatchReject, transport.WatchRejectPayload{
			Title:      title.Name,
			Class:      string(rej.Class),
			Reason:     string(rej.Reason),
			NeededMbps: rej.NeededMbps,
			FreeMbps:   rej.FreeMbps,
		})
		if eerr != nil {
			return nil, false, eerr
		}
		return nil, true, c.WriteMessage(m)
	}
}

// deliverCluster obtains one cluster as a pool-leased frame: locally when
// resident, otherwise from the server the routing policy selects right now
// (the paper's per-cluster re-evaluation). A failed remote fetch retries
// against the remaining replicas, cheapest first, so one dead peer does not
// abort the playback. With admission enabled, planRate > 0 filters routes to
// those with residual headroom for the granted bitrate, falling back to the
// cheapest path when none qualifies (the admitted session is kept alive over
// being cut off).
//
// The retry loop needs no budget: every failed fetch excludes its peer, so a
// cluster is tried at most once per replica before planning runs out of
// candidates. With the defense enabled, peers behind refusing circuit
// breakers are excluded from planning (unless every replica is, in which
// case one probe is forced through), and each fetch may hedge a second
// replica past the P99 deadline. The caller owns one reference on the
// returned frame and must Release it once the bytes are on the wire; a merged
// cohort Retains it once per fan-out subscriber instead of re-reading.
func (s *Server) deliverCluster(title media.Title, index int, ws *watchSession) (*transport.Frame, transport.ClusterPayload, error) {
	if s.cfg.Cache.Resident(title.Name) {
		frame, payload, err := s.readLocalCluster(title.Name, index)
		if err == nil {
			// The title became resident mid-stream (a DMA admission): the
			// session now serves locally and its trunk reservations come home.
			s.migrateReservation(ws, nil)
			return frame, payload, nil
		}
		// A read the DMA's eviction pulled the blocks from under is a miss,
		// served below like any other; a failed read of a title still
		// resident is this node's storage fault and surfaces.
		if s.cfg.Cache.Resident(title.Name) {
			return nil, transport.ClusterPayload{}, err
		}
	}
	// Local prefix store next: every path that lands here — watch starts,
	// late-joiner patch streams, and the post-eviction unicast tail — serves
	// pinned leading clusters off local disk before dialing anywhere. Any
	// prefix read error is a miss: a racing epoch shrink may free a block
	// between the lookup and the read.
	if s.cfg.Prefix != nil {
		if e, ok := s.cfg.Prefix.Lookup(title.Name, index); ok {
			frame, payload, err := s.readStored(s.cfg.Prefix.Array(), e.Layout, title.Name, index,
				"server.prefix_reads", "server.prefix_bytes")
			if err == nil {
				return frame, payload, nil
			}
		}
	}
	exclude := make(map[topology.NodeID]bool)
	var lastErr error
	for {
		dec, err := s.planDefended(title.Name, ws.planRate, exclude)
		if err != nil {
			if lastErr != nil {
				return nil, transport.ClusterPayload{}, fmt.Errorf("%w (after fetch failure: %v)", err, lastErr)
			}
			return nil, transport.ClusterPayload{}, err
		}
		if dec.Server == s.cfg.Node {
			// The catalog still lists this node for a title the DMA has just
			// evicted: the mirror runs after the eviction. Not a peer
			// failure, so no retry or breaker report is charged; the plan
			// simply runs again without this node.
			exclude[s.cfg.Node] = true
			continue
		}
		frame, payload, winner, err := s.fetchHedged(dec, title.Name, index, ws.planRate, exclude)
		if err != nil {
			lastErr = err
			exclude[dec.Server] = true
			s.cfg.Metrics.Counter("server.fetch_retries").Inc()
			continue
		}
		if s.cfg.Counters != nil {
			s.cfg.Counters.ChargePath(winner.Path.Links(), frame.BodyLen())
		}
		// The bytes crossed the winner's route; when that differs from the
		// links the session reserved at admission, the reservation follows
		// the stream (cluster-boundary VRA switches, hedge winners, and
		// replica failover all land here).
		s.migrateReservation(ws, winner.Path.Links())
		s.cfg.Metrics.Counter("server.remote_clusters").Inc()
		return frame, payload, nil
	}
}

// planDefended plans one cluster's replica with peers behind refusing
// circuit breakers excluded, and claims the chosen peer's breaker: a peer
// whose breaker refuses at claim time (a half-open breaker whose one probe
// another session already holds) is excluded and the plan runs again, with no
// retry or failure charged. When that leaves no candidate — every remaining
// replica's breaker refuses — the plain plan is used instead, forcing one
// request through as the probe that can discover recovery (a watch must not
// fail just because all breakers are open at once).
func (s *Server) planDefended(title string, planRate float64, exclude map[topology.NodeID]bool) (core.Decision, error) {
	if s.breakers == nil {
		return s.planCluster(title, planRate, exclude)
	}
	merged := make(map[topology.NodeID]bool, len(exclude))
	for n := range exclude {
		merged[n] = true
	}
	for n := range s.breakers.Open() {
		merged[n] = true
	}
	for {
		dec, err := s.planCluster(title, planRate, merged)
		if err != nil {
			if !errors.Is(err, core.ErrNoCandidates) || len(merged) == len(exclude) {
				return core.Decision{}, err
			}
			break
		}
		if dec.Server == s.cfg.Node || s.breakers.Allow(dec.Server) {
			return dec, nil
		}
		merged[dec.Server] = true
	}
	s.cfg.Metrics.Counter("client.breaker_probes_forced").Inc()
	return s.planCluster(title, planRate, exclude)
}

// fetchOnce performs one instrumented peer fetch: it reports the outcome to
// the peer's breaker and feeds successful latencies to the hedging tracker.
func (s *Server) fetchOnce(dec core.Decision, title string, index int) (*transport.Frame, transport.ClusterPayload, error) {
	began := s.cfg.Clock.Now()
	frame, payload, err := s.fetchRemoteCluster(dec, title, index)
	ok := err == nil
	if s.breakers != nil {
		s.breakers.Report(dec.Server, ok)
	}
	if ok && s.hedgeLat != nil {
		s.hedgeLat.Observe(s.cfg.Clock.Now().Sub(began))
	}
	return frame, payload, err
}

// fetchHedged fetches one cluster from the decided replica and, when the
// fetch outlives the latency tracker's P99-derived deadline, races a second
// replica for the same cluster — the hedge that turns a stalled peer into a
// tail-latency blip instead of a rebuffer. The first success wins; the
// loser's frame is released as it straggles in, so hedging never leaks pool
// leases. Returns the winning decision so the caller charges the links the
// bytes actually crossed.
func (s *Server) fetchHedged(dec core.Decision, title string, index int, planRate float64,
	exclude map[topology.NodeID]bool) (*transport.Frame, transport.ClusterPayload, core.Decision, error) {
	if s.hedgeLat == nil {
		frame, payload, err := s.fetchOnce(dec, title, index)
		return frame, payload, dec, err
	}
	type result struct {
		frame   *transport.Frame
		payload transport.ClusterPayload
		dec     core.Decision
		err     error
	}
	resCh := make(chan result, 2)
	launch := func(d core.Decision) {
		go func() {
			f, p, err := s.fetchOnce(d, title, index)
			resCh <- result{frame: f, payload: p, dec: d, err: err}
		}()
	}
	launch(dec)
	outstanding := 1
	hedged := false
	hedgeTimer := s.cfg.Clock.After(s.hedgeLat.Deadline())
	var lastErr error
	for {
		select {
		case r := <-resCh:
			outstanding--
			if r.err == nil {
				if outstanding > 0 {
					// Drain the loser in the background and return its lease;
					// its fetch goroutine still reports to its breaker.
					go func(n int) {
						for range n {
							if lr := <-resCh; lr.err == nil {
								lr.frame.Release()
							}
						}
					}(outstanding)
				}
				if hedged && r.dec.Server != dec.Server {
					s.cfg.Metrics.Counter("client.hedges_won").Inc()
				}
				return r.frame, r.payload, r.dec, nil
			}
			lastErr = r.err
			if outstanding == 0 {
				return nil, transport.ClusterPayload{}, dec, lastErr
			}
		case <-hedgeTimer:
			hedgeTimer = nil // fire at most once
			// Race the next-best replica, never the one already in flight.
			hexcl := make(map[topology.NodeID]bool, len(exclude)+1)
			for n := range exclude {
				hexcl[n] = true
			}
			hexcl[dec.Server] = true
			hdec, err := s.planDefended(title, planRate, hexcl)
			if err != nil || hdec.Server == s.cfg.Node {
				continue // no second replica to race; keep waiting
			}
			hedged = true
			s.cfg.Metrics.Counter("client.hedges_launched").Inc()
			launch(hdec)
			outstanding++
		}
	}
}

// sendPrivate reads clusters [from, to) privately, one deliverCluster each,
// and writes them to this client in order.
func (s *Server) sendPrivate(c *transport.Conn, title media.Title, from, to int, ws *watchSession) error {
	for idx := from; idx < to; idx++ {
		frame, payload, err := s.deliverCluster(title, idx, ws)
		if err != nil {
			return fmt.Errorf("cluster %d: %w", idx, err)
		}
		err = s.sendCluster(c, transport.TypeCluster, payload, frame)
		frame.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// joinCohort attaches one session to the merge registry. A cohort this
// session creates reads through the private delivery path, which the pump
// calls once per cluster for the whole cohort: replica failover inside
// deliverCluster is therefore shared too. For a non-resident title with relay
// cohorts enabled, the cohort reads through one shared upstream relay.join
// subscription instead — N local watchers cost the origin one stream — and
// the relay source is lazy (its connection opens on the first pump read)
// because the registry only uses the source when this session actually
// creates the cohort.
func (s *Server) joinCohort(title media.Title, numClusters, start int, ws *watchSession) (*merge.Sub, error) {
	if s.cfg.RelayCohorts && !s.cfg.Cache.Resident(title.Name) {
		rs := &relaySource{s: s, title: title, ws: ws}
		return s.merges.JoinSourceHold(title.Name, numClusters, start, rs.read, rs.close, 0)
	}
	src := func(index int) (*transport.Frame, transport.ClusterPayload, error) {
		return s.deliverShared(title, index, ws)
	}
	return s.merges.JoinSourceHold(title.Name, numClusters, start, src, nil, ws.holdDown)
}

// deliverShared is deliverCluster for a cohort source: the pump fans the
// frame out with Retain, and a pipe can be read only once, so a pulled body
// is moved from its pipe into a pooled buffer first.
func (s *Server) deliverShared(title media.Title, index int, ws *watchSession) (*transport.Frame, transport.ClusterPayload, error) {
	frame, payload, err := s.deliverCluster(title, index, ws)
	if err != nil {
		return nil, transport.ClusterPayload{}, err
	}
	if err := frame.Materialize(s.cfg.Pool); err != nil {
		frame.Release()
		return nil, transport.ClusterPayload{}, err
	}
	return frame, payload, nil
}

// prefixHead is the end of the run of clusters from start that the local
// prefix store serves: [start, prefixHead) of a title the DMA does not hold
// come off local disk with zero cross-network fetches. It is start when the
// prefix serves none of them.
func (s *Server) prefixHead(title string, numClusters, start int) int {
	if s.cfg.Prefix == nil || s.cfg.Cache.Resident(title) {
		return start
	}
	if k := s.cfg.Prefix.PrefixClusters(title); k > start {
		return min(k, numClusters)
	}
	return start
}

// queuePrefixInfo queues one watch's prefix announce frame:
// how many leading clusters (from its start position) come off the local
// prefix, how many remote round trips the first cluster costs, and whether
// the tail rides a shared relay subscription. Like the queued watch.ok it
// rides the first cluster frame's writev.
func (s *Server) queuePrefixInfo(c *transport.Conn, title string, numClusters, start int) error {
	var p transport.PrefixAnnouncePayload
	if !s.cfg.Cache.Resident(title) {
		head := s.prefixHead(title, numClusters, start)
		p.PrefixClusters = head - start
		if head == start {
			p.StartupRTTs = 1
		}
		p.RelayTail = s.cfg.RelayCohorts && s.merges != nil && head < numClusters
	}
	return c.QueuePrefixAnnounceFrame(p)
}

// relaySource adapts one upstream relay.join subscription into a cohort
// source: the cross-server merging extension. The pump is the only caller
// (reads are sequential and never concurrent, and the cleanup hook runs
// after the last read), so the source needs no locking. On upstream failure
// it reopens against the next replica once, then falls back permanently to
// the private per-cluster delivery path — the cohort keeps streaming either
// way.
type relaySource struct {
	s     *Server
	title media.Title
	ws    *watchSession

	conn    *transport.Conn
	peer    topology.NodeID
	links   []topology.LinkID
	next    int // next cluster index expected from the upstream stream
	broken  bool
	exclude map[topology.NodeID]bool
}

// read obtains one cluster for the cohort pump.
func (r *relaySource) read(index int) (*transport.Frame, transport.ClusterPayload, error) {
	if r.broken {
		return r.s.deliverShared(r.title, index, r.ws)
	}
	for attempt := 0; attempt < 2; attempt++ {
		if r.conn == nil || index < r.next {
			if err := r.reopen(index); err != nil {
				break
			}
		}
		frame, payload, err := r.readAt(index)
		if err == nil {
			return frame, payload, nil
		}
		r.closeConn()
	}
	// Out of upstream replicas (or a misbehaving stream): the rest of this
	// cohort is served by the private path, whose own retry loop, breakers,
	// and prefix checks still apply.
	r.broken = true
	r.s.cfg.Metrics.Counter("server.relay_fallbacks").Inc()
	return r.s.deliverShared(r.title, index, r.ws)
}

// close is the cohort's source-cleanup hook.
func (r *relaySource) close() { r.closeConn() }

func (r *relaySource) closeConn() {
	if r.conn != nil {
		_ = r.conn.Close()
		r.conn = nil
	}
}

// reopen plans the current holder, dials it, and subscribes from index. The
// previous upstream peer (if any) is excluded so a failing holder is not
// redialed.
func (r *relaySource) reopen(index int) error {
	r.closeConn()
	if r.exclude == nil {
		// Never this node itself, whatever a lagging catalog says (see
		// deliverCluster).
		r.exclude = map[topology.NodeID]bool{r.s.cfg.Node: true}
	}
	if r.peer != "" {
		r.exclude[r.peer] = true
	}
	dec, err := r.s.planDefended(r.title.Name, r.ws.planRate, r.exclude)
	if err != nil {
		return err
	}
	addr, err := r.s.cfg.Book.Lookup(dec.Server)
	if err != nil {
		return err
	}
	conn, err := r.s.cfg.Faults.Dial(dec.Server, dec.Path.Links(), addr)
	if err != nil {
		return err
	}
	// The relay stream is binary-only, which keeps it on the kernel-send
	// path at the origin; a holder that does not grant it is not subscribed.
	if err := conn.RequireClusterFrames(); err != nil {
		_ = conn.Close()
		return err
	}
	req, err := transport.Encode(transport.TypeRelayJoin, transport.RelayJoinPayload{
		Title:        r.title.Name,
		StartCluster: index,
	})
	if err != nil {
		_ = conn.Close()
		return err
	}
	if err := conn.WriteMessage(req); err != nil {
		_ = conn.Close()
		return err
	}
	r.conn = conn
	r.peer = dec.Server
	r.links = dec.Path.Links()
	r.next = index
	r.s.cfg.Metrics.Counter("server.relay_upstreams").Inc()
	return nil
}

// readAt consumes the upstream stream until the wanted cluster arrives,
// skipping announcements (watch.ok, merge-info and prefix-info frames) and
// any clusters before index (the origin streams sequentially from the
// subscribed position; a jump past already-broadcast clusters discards the
// overlap).
func (r *relaySource) readAt(index int) (*transport.Frame, transport.ClusterPayload, error) {
	for {
		m, payload, f, err := r.conn.ReadClusterOrMessage(r.s.cfg.Pool)
		if err != nil {
			return nil, transport.ClusterPayload{}, err
		}
		if f == nil {
			switch m.Type {
			case transport.TypeWatchOK:
				continue
			case transport.TypeWatchDone:
				return nil, transport.ClusterPayload{}, fmt.Errorf("relay upstream finished before cluster %d", index)
			case transport.TypeError:
				return nil, transport.ClusterPayload{}, transport.AsError(m)
			default:
				return nil, transport.ClusterPayload{}, fmt.Errorf("unexpected relay stream message %q", m.Type)
			}
		}
		if f.Type != transport.FrameCluster || payload.Index < index {
			f.Release() // merge-info / prefix-info announcements, overlap
			continue
		}
		if payload.Index > index {
			f.Release()
			return nil, transport.ClusterPayload{}, fmt.Errorf("relay stream at cluster %d, want %d", payload.Index, index)
		}
		// The frame is body-only, leased at the body's size: the cohort
		// fans it out as it came off the wire, with no second copy.
		r.account(payload)
		return f, payload, nil
	}
}

// account charges one relayed cluster: the shared-stream counter and the
// links the bytes crossed (the SNMP estimator sees relay traffic like any
// other delivery).
func (r *relaySource) account(payload transport.ClusterPayload) {
	r.next = payload.Index + 1
	r.s.cfg.Metrics.Counter("server.relay_clusters").Inc()
	if r.s.cfg.Counters != nil {
		r.s.cfg.Counters.ChargePath(r.links, payload.Length)
	}
}

// handleRelay answers one relay.join: stream the title to a downstream
// relay server exactly as a watch would — through this node's own merge
// registry when enabled, so N relays subscribing within the window share one
// disk-read stream. A relay join counts one demand signal into the DMA (one
// downstream cohort aggregates many viewers) but takes no admission grant,
// announces no prefix, and is never redirected: the relay already planned
// this holder.
func (s *Server) handleRelay(c *transport.Conn, m transport.Message) error {
	req, err := transport.Decode[transport.RelayJoinPayload](m)
	if err != nil {
		return err
	}
	title, numClusters, err := s.sessionTitle(req.Title, req.StartCluster)
	if err != nil {
		return err
	}
	ws := &watchSession{holdDown: relayHoldDown}
	return s.serveSession(c, title, numClusters, req.StartCluster, ws, func(cache.Outcome) error {
		s.cfg.Metrics.Counter("server.relay_watchers").Inc()
		return nil
	})
}

// stream is the one stream loop every session runs over [start,
// numClusters). Without merging every cluster is read privately, the
// paper's delivery mode. With merging the session streams its pinned prefix
// head privately, joins (or opens) a cohort for the tail, announces the
// merge to the client, privately patches the gap up to the join position,
// then relays the shared base stream. When the cohort detaches this session
// early — it stalled, or the cohort's source failed — the remaining clusters
// are read privately, whose own replica retry absorbs server failures, so
// the client sees an unbroken in-order stream either way.
func (s *Server) stream(c *transport.Conn, title media.Title, numClusters, start int, ws *watchSession) error {
	// Local-prefix fast path: clusters [start, head) are pinned locally and
	// stream with zero cross-network fetches — instant start. The cohort is
	// joined at head, so the shared stream (and its upstream relay, when
	// enabled) carries only the tail the VRA must fetch.
	head := numClusters
	if s.merges != nil {
		head = s.prefixHead(title.Name, numClusters, start)
	}
	// The tail cohort is joined BEFORE the head streams: the subscription
	// queue buffers the shared stream while the pinned prefix plays, so the
	// tail is prefetched behind the head (the patching literature's
	// prefix/suffix pipelining). For relay cohorts this is what makes the
	// upstream relay.join land at session start — every relay server in a
	// flash crowd dials the origin within the aggregation hold-down, however
	// long its pinned head takes to play out — instead of at head
	// completion, whose timing spreads with load.
	var sub *merge.Sub
	if head < numClusters {
		var err error
		sub, err = s.joinCohort(title, numClusters, head, ws)
		if err != nil {
			return err
		}
		// Leave is idempotent and releases any queued frames on error paths.
		defer sub.Leave()
		role := transport.MergeRolePatch
		if sub.Created() {
			role = transport.MergeRoleBase
		}
		// Queued like watch.ok, it rides the first cluster frame's writev
		// (watch.done flushes it when the session has no clusters).
		if err := c.QueueMergeInfoFrame(transport.MergeInfoPayload{
			Cohort:        sub.CohortID(),
			Role:          role,
			JoinIndex:     sub.Start(),
			PatchClusters: sub.Start() - head,
		}); err != nil {
			return err
		}
	}
	if err := s.sendPrivate(c, title, start, head, ws); err != nil || sub == nil {
		return err
	}
	// Patch stream: the clusters this session missed, read privately while
	// the subscription queue buffers the ongoing base stream. With a prefix
	// pinned past the join position the patch never leaves local disk.
	if err := s.sendPrivate(c, title, head, sub.Start(), ws); err != nil {
		return err
	}
	next := sub.Start()
	for {
		item, ok := sub.Recv()
		if !ok {
			break
		}
		err := s.sendCluster(c, transport.TypeCluster, item.Payload, item.Frame)
		item.Frame.Release()
		if err != nil {
			return err
		}
		next = item.Payload.Index + 1
	}
	// Private tail: nothing to do after normal cohort completion; after an
	// eviction it resumes at exactly the next undelivered index.
	return s.sendPrivate(c, title, next, numClusters, ws)
}

// planCluster picks the serving replica for one cluster, bandwidth-aware
// when the session carries an admission grant.
func (s *Server) planCluster(title string, planRate float64, exclude map[topology.NodeID]bool) (core.Decision, error) {
	if s.cfg.Broker != nil && planRate > 0 {
		dec, err := s.cfg.Planner.PlanBandwidth(s.cfg.Node, title, planRate, exclude)
		if err == nil {
			return dec, nil
		}
		if !errors.Is(err, core.ErrInsufficientBandwidth) {
			return core.Decision{}, err
		}
		s.cfg.Metrics.Counter("server.plan_headroom_fallbacks").Inc()
	}
	return s.cfg.Planner.PlanExcluding(s.cfg.Node, title, exclude)
}

// fetchRemoteCluster pulls one cluster from a peer over TCP, on a connection
// from the server's idle pool when one is parked for this peer and route and
// on a fresh dial otherwise. A fresh dial runs the hello once and must be
// granted binary cluster frames, so the peer answers each binary cluster.get
// with a binary cluster.ok it can send with sendfile; a pooled reuse keeps
// that grant. A failed hello counts like a failed dial. The reply's body is
// spliced into a pipe from the server's pipe pool when the connection is a
// raw socket (see transport.ReadClusterReply), else read into a pool-leased
// buffer; either way the reply is read whole, so a connection goes back to
// the pool only after a complete well-formed reply, and any error closes it.
//
// The fault injector sees every fetch, not every dial: DialError is asked
// before each attempt, so a scheduled partition refuses a route even while a
// pooled connection for it exists, and a pooled connection keeps the
// injector's gate, which passes (and is cut) on the route it was dialed for.
//
// A reused connection that fails before the peer answered — the peer timed
// it out, restarted, or the injector cut it while it sat idle — says nothing
// about the peer, so the fetch is retried once on a fresh dial right here,
// below fetchOnce's reporting: breakers, the hedge tracker and the retry
// counter only ever see the outcome of a fetch the peer had a fair chance to
// serve.
func (s *Server) fetchRemoteCluster(dec core.Decision, title string, index int) (*transport.Frame, transport.ClusterPayload, error) {
	addr, err := s.cfg.Book.Lookup(dec.Server)
	if err != nil {
		return nil, transport.ClusterPayload{}, err
	}
	req := transport.ClusterGetPayload{Title: title, Index: index, ClusterBytes: s.cfg.ClusterBytes}
	links := dec.Path.Links()
	key := peerConnKey(dec.Server, links)
	for fresh := false; ; fresh = true {
		if s.cfg.Faults != nil {
			if ferr := s.cfg.Faults.DialError(dec.Server, links); ferr != nil {
				return nil, transport.ClusterPayload{}, ferr
			}
		}
		var peer *transport.Conn
		if !fresh {
			peer = s.peers.Get(key)
		}
		reused := peer != nil
		if reused {
			s.cfg.Metrics.Counter("server.peer_reuses").Inc()
		} else {
			if peer, err = s.cfg.Faults.Dial(dec.Server, links, addr); err != nil {
				return nil, transport.ClusterPayload{}, err
			}
			s.cfg.Metrics.Counter("server.peer_dials").Inc()
			if err := peer.RequireClusterFrames(); err != nil {
				_ = peer.Close()
				return nil, transport.ClusterPayload{}, fmt.Errorf("peer %s: %w", dec.Server, err)
			}
		}
		frame, payload, answered, err := s.clusterGet(peer, req)
		if err == nil {
			s.peers.Put(key, peer)
			return frame, payload, nil
		}
		_ = peer.Close()
		if reused && !answered {
			continue // stale idle connection: once more, on a fresh dial
		}
		if errors.Is(err, io.EOF) {
			return nil, transport.ClusterPayload{}, fmt.Errorf("peer %s closed during cluster fetch", dec.Server)
		}
		return nil, transport.ClusterPayload{}, err
	}
}

// clusterGet runs one cluster.get exchange on peer. answered reports whether
// the first octet of the peer's reply arrived, i.e. the failure (if any) is
// the peer's answer or a stream broken mid-reply rather than a connection
// that was already dead when the request went out.
func (s *Server) clusterGet(peer *transport.Conn, req transport.ClusterGetPayload) (frame *transport.Frame, payload transport.ClusterPayload, answered bool, err error) {
	if err := peer.WriteClusterGetFrame(req); err != nil {
		return nil, transport.ClusterPayload{}, false, err
	}
	payload, frame, err = peer.ReadClusterReply(s.cfg.Pool, s.pipes)
	if err != nil {
		return nil, transport.ClusterPayload{}, !errors.Is(err, transport.ErrNoReply), err
	}
	return frame, payload, true, nil
}

// peerConnKey is the idle-pool key of a connection to peer over the route
// crossing links. The route is part of the key because a fault-injected
// connection gates on the links it was dialed for: after a VRA re-route the
// fetch must not ride a connection gated on the old path.
func peerConnKey(peer topology.NodeID, links []topology.LinkID) string {
	var b strings.Builder
	b.WriteString(string(peer))
	for _, l := range links {
		b.WriteByte('|')
		b.WriteString(string(l))
	}
	return b.String()
}

// Preload stores a title locally and records the holding in the database —
// the paper's initialization phase, where administrators distribute the
// initial title placement.
func (s *Server) Preload(t media.Title) error {
	dma, ok := s.cfg.Cache.(*cache.DMA)
	if !ok {
		return errors.New("preload requires the DMA cache")
	}
	if err := dma.Preload(t); err != nil {
		return err
	}
	return s.cfg.DB.SetHolding(s.cfg.Node, t.Name, true, s.cfg.Clock.Now())
}

// WaitReady dials the server until it answers a ping or the timeout
// expires — a test/startup helper. Probes back off with jitter so a fleet of
// waiters does not poll in lockstep.
func (s *Server) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	bo := faults.NewBackoff(2*time.Millisecond, 50*time.Millisecond, 2, int64(len(s.cfg.Node)))
	for {
		c, err := transport.Dial(s.Addr())
		if err == nil {
			ping, perr := transport.Encode(transport.TypePing, nil)
			if perr == nil {
				if err := c.WriteMessage(ping); err == nil {
					if m, err := c.ReadMessage(); err == nil && m.Type == transport.TypePong {
						_ = c.Close()
						return nil
					}
				}
			}
			_ = c.Close()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server %s not ready: %v", s.cfg.Node, err)
		}
		time.Sleep(bo.Next())
	}
}
