package dvod

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"dvod/internal/admission"
	"dvod/internal/cache"
	"dvod/internal/client"
	"dvod/internal/clock"
	"dvod/internal/core"
	"dvod/internal/db"
	"dvod/internal/disk"
	"dvod/internal/faults"
	"dvod/internal/grnet"
	"dvod/internal/ledger"
	"dvod/internal/media"
	"dvod/internal/membership"
	"dvod/internal/metrics"
	"dvod/internal/prefix"
	"dvod/internal/server"
	"dvod/internal/snmp"
	"dvod/internal/topology"
	"dvod/internal/transport"
	"dvod/internal/web"
)

// Re-exported domain types, so downstream users need only this package.
type (
	// NodeID names a video-server site.
	NodeID = topology.NodeID
	// LinkID canonically names a network link.
	LinkID = topology.LinkID
	// Title describes a video title.
	Title = media.Title
	// Decision is a VRA server-selection outcome.
	Decision = core.Decision
	// Player watches titles through a home server.
	Player = client.Player
	// PlaybackStats summarizes one watch session.
	PlaybackStats = client.PlaybackStats
	// FaultPlan is a declarative, deterministic fault schedule ("at T, fail
	// X for D"); arm it with WithFaultPlan.
	FaultPlan = faults.Plan
	// FaultEvent is one scheduled fault of a FaultPlan.
	FaultEvent = faults.Event
	// FaultLogEntry is one row of the injector's deterministic
	// activation/deactivation sequence (Service.FaultEvents).
	FaultLogEntry = faults.LogEntry
	// Member is one entry of a node's membership view (WithMembership).
	Member = membership.Member
	// MemberState is a membership lifecycle state.
	MemberState = membership.State
	// MemberEvent is one membership transition observed by a node's tracker.
	MemberEvent = membership.Event
	// RedirectError is the client's typed failure following one
	// watch.redirect hop.
	RedirectError = client.RedirectError
)

// Membership lifecycle states, re-exported for churn assertions.
const (
	MemberAlive    = membership.Alive
	MemberDraining = membership.Draining
	MemberSuspect  = membership.Suspect
	MemberFailed   = membership.Failed
	MemberLeft     = membership.Left
)

// MakeLinkID builds the canonical ID for the unordered node pair.
func MakeLinkID(a, b NodeID) LinkID { return topology.MakeLinkID(a, b) }

// LinkSpec declares one bidirectional link of the service topology.
type LinkSpec struct {
	A, B         NodeID
	CapacityMbps float64
}

// TopologySpec declares the service's overlay network.
type TopologySpec struct {
	Nodes []NodeID
	Links []LinkSpec
}

// GRNETTopology returns the paper's case-study network: the Greek Research
// and Technology Network backbone of Figure 6 (six sites, seven links).
func GRNETTopology() TopologySpec {
	spec := TopologySpec{Nodes: grnet.Nodes()}
	for _, l := range grnet.Table2() {
		spec.Links = append(spec.Links, LinkSpec{A: l.A, B: l.B, CapacityMbps: l.CapacityMbps})
	}
	return spec
}

// buildGraph converts a spec into a validated graph.
func buildGraph(spec TopologySpec) (*topology.Graph, error) {
	g := topology.NewGraph()
	for _, n := range spec.Nodes {
		if err := g.AddNode(n); err != nil {
			return nil, err
		}
	}
	for _, l := range spec.Links {
		if _, err := g.AddLink(l.A, l.B, l.CapacityMbps); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// errClosed refuses Start and AddServer once Close has run.
var errClosed = errors.New("dvod: service closed")

// Service is a running distributed VoD deployment: one video server per
// topology node (on localhost TCP), a shared database module, SNMP polling
// of delivered traffic, DMA caching, and VRA routing.
type Service struct {
	opts    options
	db      *db.DB
	book    *transport.AddrBook
	counter *transport.Counters
	poller  *snmp.Poller
	// est differentiates the live plane's octet counters into Mbps for the
	// SNMP agents (set at Start; joiners' agents reuse it).
	est *snmp.RateEstimator
	// injector applies the armed fault plan (nil without WithFaultPlan).
	injector *faults.Injector

	// mu guards every per-node map below (and stopped, started, closed): the
	// fleet is elastic, so AddServer / DrainServer mutate them at runtime.
	mu      sync.Mutex
	servers map[NodeID]*server.Server
	// planners hold each node's VRA planner, the one its server plans every
	// cluster with; Plan and the web module answer through the home's.
	planners map[NodeID]*core.Planner
	caches   map[NodeID]*cache.DMA
	// prefixes exist per node with WithPrefixBudget.
	prefixes map[NodeID]*prefix.Manager
	// directors exist for every node (the stateless front door; inert
	// until draining or WithFrontDoor).
	directors map[NodeID]*membership.Director
	// trackers/mgossipers exist per node with WithMembership.
	trackers   map[NodeID]*membership.Tracker
	mgossipers map[NodeID]*membership.Gossiper
	// brokers/ledgers/gossipers exist per node with WithAdmission; the
	// ledger pair is absent with WithoutLedger.
	brokers   map[NodeID]*admission.Broker
	ledgers   map[NodeID]*ledger.Ledger
	gossipers map[NodeID]*ledger.Gossiper
	stopped   map[NodeID]bool
	// epochs counts each node's boots: a tracker rebuilt by AddServer after
	// StopServer announces a fresh epoch so peers reset their delta-sync
	// acks instead of trusting state the restarted node no longer holds.
	epochs  map[NodeID]uint64
	started bool
	closed  bool
}

// New assembles a service over the topology. Call Start to bring the
// servers online.
func New(spec TopologySpec, opts ...Option) (*Service, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	g, err := buildGraph(spec)
	if err != nil {
		return nil, fmt.Errorf("dvod: topology: %w", err)
	}
	d := db.New(g)
	book := transport.NewAddrBook()
	counters := transport.NewCounters()
	var injector *faults.Injector
	if o.faultPlan != nil {
		injector, err = faults.NewInjector(*o.faultPlan, o.faultSeed, o.clock, metrics.NewRegistry())
		if err != nil {
			return nil, err
		}
	}
	svc := &Service{
		opts:      o,
		db:        d,
		book:      book,
		counter:   counters,
		servers:   make(map[NodeID]*server.Server, g.NumNodes()),
		planners:  make(map[NodeID]*core.Planner, g.NumNodes()),
		caches:    make(map[NodeID]*cache.DMA, g.NumNodes()),
		directors: make(map[NodeID]*membership.Director, g.NumNodes()),
		injector:  injector,
		stopped:   make(map[NodeID]bool),
		epochs:    make(map[NodeID]uint64),
	}
	if o.prefixBudgetBytes > 0 {
		svc.prefixes = make(map[NodeID]*prefix.Manager, g.NumNodes())
	}
	if o.membershipInterval > 0 {
		svc.trackers = make(map[NodeID]*membership.Tracker, g.NumNodes())
		svc.mgossipers = make(map[NodeID]*membership.Gossiper, g.NumNodes())
	}
	if o.admissionMbps > 0 {
		svc.brokers = make(map[NodeID]*admission.Broker, g.NumNodes())
		if !o.noLedger {
			svc.ledgers = make(map[NodeID]*ledger.Ledger, g.NumNodes())
			svc.gossipers = make(map[NodeID]*ledger.Gossiper, g.NumNodes())
		}
	}
	for _, node := range g.Nodes() {
		if err := svc.buildNodeStack(node); err != nil {
			return nil, err
		}
	}
	return svc, nil
}

// buildNodeStack constructs one node's full stack — disk array, DMA, planner,
// broker, ledger replica, membership tracker, redirect director, server, and
// both gossipers — and registers everything in the service maps. It is the
// shared path of New (boot fleet) and AddServer (elastic join); the caller is
// single-threaded during New, and AddServer serializes joins.
func (s *Service) buildNodeStack(node NodeID) error {
	o := s.opts
	d := s.db
	count, capBytes := o.arrayShape(node)
	var arr *disk.Array
	var err error
	if o.dataDir != "" {
		arr, err = disk.NewUniformFileArray(string(node), count, capBytes,
			filepath.Join(o.dataDir, string(node)))
	} else {
		arr, err = disk.NewUniformArray(string(node), count, capBytes)
	}
	if err != nil {
		return err
	}
	dma, err := cache.NewDMA(cache.Config{Array: arr, ClusterBytes: o.clusterBytes})
	if err != nil {
		return err
	}
	// One registry per node shared by the server, its prefix manager, its
	// broker, its ledger replica, and its membership tracker, so prefix.*,
	// admission.*, ledger.*, and membership.* surface together in
	// Service.Metrics.
	reg := metrics.NewRegistry()
	var pfx *prefix.Manager
	if o.prefixBudgetBytes > 0 {
		// The prefix tier gets its own single-disk store, sized exactly to
		// the budget, so pinned prefixes never compete with whole-title DMA
		// caching for array room. It is file-backed whenever the node's main
		// array is, which keeps prefix reads on the sendfile kernel path.
		var parr *disk.Array
		if o.dataDir != "" {
			parr, err = disk.NewUniformFileArray(string(node)+"-prefix", 1,
				o.prefixBudgetBytes, filepath.Join(o.dataDir, string(node), "prefix"))
		} else {
			parr, err = disk.NewUniformArray(string(node)+"-prefix", 1, o.prefixBudgetBytes)
		}
		if err != nil {
			return err
		}
		pfx, err = prefix.New(prefix.Config{
			Array:        parr,
			ClusterBytes: o.clusterBytes,
			BudgetBytes:  o.prefixBudgetBytes,
			Points:       dma.Points,
			Catalog:      d.Catalog().Titles,
			Metrics:      reg,
		})
		if err != nil {
			return err
		}
		s.prefixes[node] = pfx
	}
	if s.injector != nil {
		arr.SetReadInterceptor(s.injector.ReadInterceptor(node))
	}
	var (
		brk *admission.Broker
		led *ledger.Ledger
	)
	if o.admissionMbps > 0 {
		if !o.noLedger {
			led, err = ledger.New(ledger.Config{
				Origin: node,
				// The lease must survive many missed rounds (a partition
				// is not a death) while still draining a dead server's
				// reservations promptly.
				TTL:     40 * o.ledgerInterval,
				Clock:   o.clock,
				Metrics: reg,
			})
			if err != nil {
				return err
			}
			s.ledgers[node] = led
		}
		brk, err = admission.New(admission.Config{
			Node:         node,
			CapacityMbps: o.admissionMbps,
			Snapshot:     d.Snapshot,
			Ledger:       led,
			Clock:        o.clock,
			Metrics:      reg,
		})
		if err != nil {
			return err
		}
		s.brokers[node] = brk
	}
	var tr *membership.Tracker
	if o.membershipInterval > 0 {
		// No lock: New is single-threaded and AddServer already holds s.mu;
		// epochs is touched nowhere else.
		s.epochs[node]++
		tr, err = membership.New(membership.Config{
			Self:    node,
			Seeds:   d.Graph().Nodes(),
			Epoch:   s.epochs[node],
			OnEvent: s.memberEventHook(led),
			Metrics: reg,
		})
		if err != nil {
			return err
		}
		s.trackers[node] = tr
	}
	nodePlanner, err := core.NewPlanner(d, o.selector, nodeAvailable(tr))
	if err != nil {
		return err
	}
	dir, err := membership.NewDirector(membership.DirectorConfig{
		Self: node,
		// HoldersView keeps the per-request redirect scoring on the
		// catalog's lock-free read path (the director only iterates).
		Holders:   d.Catalog().HoldersView,
		Lookup:    s.book.Lookup,
		FrontDoor: o.frontDoor,
		Resident:  dma.Resident,
		Members:   memberViewFn(tr),
		Load:      s.brokerLoad,
	})
	if err != nil {
		return err
	}
	s.directors[node] = dir
	var mv server.MemberView
	if tr != nil {
		mv = tr
	}
	srv, err := server.New(server.Config{
		Node:           node,
		DB:             d,
		Planner:        nodePlanner,
		Array:          arr,
		Cache:          dma,
		ClusterBytes:   o.clusterBytes,
		Book:           s.book,
		Counters:       s.counter,
		ListenAddr:     o.listenAddrs[node],
		Clock:          o.clock,
		Metrics:        reg,
		MergeWindow:    o.mergeWindow,
		Faults:         s.injector,
		Broker:         brk,
		Ledger:         led,
		DisableDefense: o.noDefense,
		Director:       dir,
		Members:        mv,
		MemberProbe:    s.memberProbe(node),
		Prefix:         pfx,
		RelayCohorts:   o.relayCohorts,
	})
	if err != nil {
		return err
	}
	s.servers[node] = srv
	s.planners[node] = nodePlanner
	s.caches[node] = dma
	if err := d.RegisterServer(node, "dvod video server", o.clock.Now()); err != nil {
		return err
	}
	if led != nil {
		gsp, err := ledger.NewGossiper(ledger.GossipConfig{
			Ledger:   led,
			PeersFn:  s.ledgerPeersFn(node),
			Lookup:   s.book.Lookup,
			Dial:     s.gossipDialer(node),
			Interval: o.ledgerInterval,
			Clock:    o.clock,
			Metrics:  reg,
		})
		if err != nil {
			return err
		}
		s.gossipers[node] = gsp
	}
	if tr != nil {
		mg, err := membership.NewGossiper(membership.GossipConfig{
			Tracker:  tr,
			Lookup:   s.book.Lookup,
			Dial:     s.gossipDialer(node),
			Interval: o.membershipInterval,
			Clock:    o.clock,
			Metrics:  reg,
		})
		if err != nil {
			return err
		}
		s.mgossipers[node] = mg
	}
	return nil
}

// memberEventHook wires one node's membership events into its ledger: a
// failed or departed member's leases are reclaimed from this node's replica
// at once, not at lease expiry. Routing needs no event: the node's planner
// reads its tracker directly (nodeAvailable).
func (s *Service) memberEventHook(led *ledger.Ledger) func(membership.Event) {
	return func(ev membership.Event) {
		if led != nil && (ev.Kind == membership.EventFail || ev.Kind == membership.EventLeave) {
			led.ExpireOrigin(ev.Node)
		}
	}
}

// ledgerPeersFn resolves one ledger gossiper's peer set per round: the
// node's membership view when the membership layer runs (failed and departed
// replicas stop being dialed, joiners start), the current topology otherwise.
func (s *Service) ledgerPeersFn(self NodeID) func() []NodeID {
	return func() []NodeID {
		s.mu.Lock()
		tr := s.trackers[self]
		s.mu.Unlock()
		if tr != nil {
			return tr.GossipPeers()
		}
		nodes := s.db.Graph().Nodes()
		peers := make([]NodeID, 0, len(nodes))
		for _, p := range nodes {
			if p != self {
				peers = append(peers, p)
			}
		}
		return peers
	}
}

// brokerLoad is the director's load hook: committed over capacity for any
// broker in the fleet (0 for unknown nodes).
func (s *Service) brokerLoad(n NodeID) float64 {
	s.mu.Lock()
	brk := s.brokers[n]
	s.mu.Unlock()
	if brk == nil || brk.CapacityMbps() <= 0 {
		return 0
	}
	return brk.CommittedMbps() / brk.CapacityMbps()
}

// memberViewFn adapts an optional tracker to the director's members hook.
func memberViewFn(tr *membership.Tracker) func() []membership.Member {
	if tr == nil {
		return nil
	}
	return tr.Members
}

// nodeAvailable is one node's planner filter over its own membership view: a
// holder the node has declared Failed or Left is no candidate, and a holder
// the view does not know yet (a joiner still gossiping in) stays one. Without
// a tracker every holder is a candidate; a dead one is found by its failed
// fetch, which excludes it for the next replica, and by its breaker.
func nodeAvailable(tr *membership.Tracker) func(NodeID) bool {
	if tr == nil {
		return nil
	}
	return func(n NodeID) bool {
		m, ok := tr.Member(n)
		return !ok || (m.State != membership.Failed && m.State != membership.Left)
	}
}

// gossipDialer routes one node's gossip exchanges through the fault
// injector, so a partition that cuts the delivery plane cuts anti-entropy
// identically (both the partitioned node's outbound dials and everyone
// else's dials toward it refuse).
func (s *Service) gossipDialer(self NodeID) func(NodeID, string) (*transport.Conn, error) {
	return func(peer NodeID, addr string) (*transport.Conn, error) {
		if inj := s.injector; inj != nil {
			if err := inj.DialError(self, nil); err != nil {
				return nil, err
			}
		}
		return s.injector.Dial(peer, nil, addr)
	}
}

// memberProbe dials and pings target on behalf of a member.ping-req sender:
// the helper leg of the membership failure detector. The dial runs through
// the fault injector, so a partitioned target fails the indirect probe
// exactly like it fails direct gossip — and a target only *this* helper
// cannot reach clears the asker's false suspicion.
func (s *Service) memberProbe(self NodeID) func(NodeID, string) error {
	dial := s.gossipDialer(self)
	return func(target NodeID, addr string) error {
		if addr == "" {
			a, err := s.book.Lookup(target)
			if err != nil {
				return err
			}
			addr = a
		}
		conn, err := dial(target, addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(membership.DefaultExchangeTimeout))
		m, err := transport.Encode(transport.TypePing, nil)
		if err != nil {
			return err
		}
		if err := conn.WriteMessage(m); err != nil {
			return err
		}
		reply, err := conn.ReadMessage()
		if err != nil {
			return err
		}
		if reply.Type != transport.TypePong {
			return fmt.Errorf("probe %s: unexpected reply %q", target, reply.Type)
		}
		return nil
	}
}

// Start brings every video server online and begins SNMP polling of the
// service's own delivered traffic.
func (s *Service) Start() error {
	s.mu.Lock()
	closed, started := s.closed, s.started
	s.mu.Unlock()
	if closed {
		return errClosed
	}
	if started {
		return errors.New("dvod: service already started")
	}
	for _, node := range s.db.Graph().Nodes() {
		if err := s.servers[node].Start(); err != nil {
			_ = s.Close()
			return err
		}
	}
	est, err := snmp.NewRateEstimator(s.counter, s.opts.clock)
	if err != nil {
		_ = s.Close()
		return err
	}
	s.est = est
	var agents []*snmp.Agent
	for _, node := range s.db.Graph().Nodes() {
		// Agents read the graph through the DB so samples always cover the
		// current (possibly grown or shrunk) topology view.
		a, err := snmp.NewDynamicAgent(node, s.db.Graph, est)
		if err != nil {
			_ = s.Close()
			return err
		}
		agents = append(agents, a)
	}
	poller, err := snmp.NewPoller(snmp.PollerConfig{
		Agents:   agents,
		DB:       s.db,
		Clock:    s.opts.clock,
		Interval: s.opts.snmpInterval,
	})
	if err != nil {
		_ = s.Close()
		return err
	}
	s.poller = poller
	poller.Start()
	if s.injector != nil {
		if err := s.injector.Start(); err != nil {
			_ = s.Close()
			return err
		}
	}
	for _, gsp := range s.gossipers {
		gsp.Start()
	}
	for _, mg := range s.mgossipers {
		mg.Start()
	}
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	return nil
}

// PrefixResolve drives one synchronous prefix epoch on every live node:
// popularity is snapshotted, the knapsack re-solved, and the pinned prefixes
// re-replicated to match. It is the only way an epoch runs: callers decide
// when popularity has shifted enough. It returns the first re-replication
// error (later nodes still resolve). No-op without WithPrefixBudget.
func (s *Service) PrefixResolve() error {
	var firstErr error
	for _, node := range s.db.Graph().Nodes() {
		s.mu.Lock()
		pm := s.prefixes[node]
		down := s.stopped[node]
		s.mu.Unlock()
		if down || pm == nil {
			continue
		}
		if _, _, err := pm.Resolve(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("dvod: prefix resolve %s: %w", node, err)
		}
	}
	return firstErr
}

// PrefixClusters reports how many leading clusters of the title are pinned on
// the node's prefix store right now (0 without WithPrefixBudget or for
// unknown nodes).
func (s *Service) PrefixClusters(node NodeID, title string) int {
	s.mu.Lock()
	pm := s.prefixes[node]
	s.mu.Unlock()
	if pm == nil {
		return 0
	}
	return pm.PrefixClusters(title)
}

// StopServer takes one video server offline: its listener closes and its
// gossipers stop. Peers are not told. Each finds the dead server through
// traffic, the dynamic adjustment the paper claims for "server configuration
// changes": the idle connections they pool to it die with it and are
// discarded on next use, the failed fetch is redialed and then excluded so
// the next replica serves, and the peer's breaker opens. With WithMembership
// each node's tracker also declares it Failed after its quiet rounds, and
// that node's planner stops choosing it.
func (s *Service) StopServer(node NodeID) error {
	s.mu.Lock()
	srv, ok := s.servers[node]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("dvod: %w: %s", topology.ErrNodeUnknown, node)
	}
	s.stopped[node] = true
	gsp := s.gossipers[node]
	mg := s.mgossipers[node]
	s.mu.Unlock()
	if gsp != nil {
		gsp.Stop()
	}
	if mg != nil {
		mg.Stop()
	}
	return srv.Close()
}

// AddServer grows the running fleet: the node and its links join the
// atomically-swapped topology view, a full per-node stack (disk array, DMA,
// planner, broker, ledger replica, membership tracker, redirect director,
// server, gossipers) is built and started, and the DMA re-replicates the
// hottest title onto the joiner so it starts serving watches immediately.
// Existing members learn of the joiner through membership gossip (or, without
// WithMembership, through the swapped topology view alone). The service must
// be started.
func (s *Service) AddServer(node NodeID, links []LinkSpec) error {
	if node == "" {
		return errors.New("dvod: empty node")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	if !s.started {
		s.mu.Unlock()
		return errors.New("dvod: service not started")
	}
	if _, exists := s.servers[node]; exists {
		s.mu.Unlock()
		return fmt.Errorf("dvod: server %s already in the fleet", node)
	}
	s.mu.Unlock()
	g := s.db.Graph().Clone()
	if err := g.AddNode(node); err != nil {
		return fmt.Errorf("dvod: join %s: %w", node, err)
	}
	for _, l := range links {
		if _, err := g.AddLink(l.A, l.B, l.CapacityMbps); err != nil {
			return fmt.Errorf("dvod: join %s: %w", node, err)
		}
	}
	if _, err := s.db.SetGraph(g); err != nil {
		return fmt.Errorf("dvod: join %s: %w", node, err)
	}
	// The joiner is built and started under s.mu, so a concurrent Close
	// either finds it running and stops it, or has run first and the join is
	// refused before any listener opens.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	err := s.buildNodeStack(node)
	if err == nil {
		err = s.servers[node].Start()
	}
	if err == nil {
		if gsp := s.gossipers[node]; gsp != nil {
			gsp.Start()
		}
		if mg := s.mgossipers[node]; mg != nil {
			mg.Start()
		}
	}
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("dvod: join %s: %w", node, err)
	}
	if s.poller != nil && s.est != nil {
		a, err := snmp.NewDynamicAgent(node, s.db.Graph, s.est)
		if err != nil {
			return fmt.Errorf("dvod: join %s: %w", node, err)
		}
		if err := s.poller.AddAgent(a); err != nil {
			return fmt.Errorf("dvod: join %s: %w", node, err)
		}
	}
	s.rereplicateTo(node)
	return nil
}

// rereplicateTo copies the hottest title the joiner does not yet hold onto
// its DMA (trying successively less popular ones if the hottest does not
// fit), so a joining server immediately takes watch load instead of serving
// nothing until organic DMA admission warms it up.
func (s *Service) rereplicateTo(node NodeID) {
	s.mu.Lock()
	srv := s.servers[node]
	dma := s.caches[node]
	caches := make([]*cache.DMA, 0, len(s.caches))
	for _, c := range s.caches {
		caches = append(caches, c)
	}
	s.mu.Unlock()
	if srv == nil || dma == nil {
		return
	}
	titles := s.db.Catalog().Titles()
	type ranked struct {
		title  Title
		points int64
	}
	var hot []ranked
	for _, t := range titles {
		if dma.Resident(t.Name) {
			continue
		}
		var pts int64
		for _, c := range caches {
			pts += c.Points(t.Name)
		}
		hot = append(hot, ranked{title: t, points: pts})
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].points != hot[j].points {
			return hot[i].points > hot[j].points
		}
		return hot[i].title.Name < hot[j].title.Name
	})
	for _, r := range hot {
		if err := srv.Preload(r.title); err == nil {
			return
		}
	}
}

// BeginDrain starts a graceful drain of one server: its director redirects
// every new watch to a better-placed replica (in-flight sessions finish
// normally), its membership state becomes Draining, and any title it is the
// sole holder of is re-replicated to the least-loaded live peer so no title
// goes dark when the drain completes. Call FinishDrain once in-flight
// sessions have ended.
func (s *Service) BeginDrain(node NodeID) error {
	s.mu.Lock()
	dir := s.directors[node]
	tr := s.trackers[node]
	s.mu.Unlock()
	if dir == nil {
		return fmt.Errorf("dvod: %w: %s", topology.ErrNodeUnknown, node)
	}
	dir.SetDraining(true)
	if tr != nil {
		tr.SetLocalState(membership.Draining)
	}
	s.evacuateSoleHoldings(node)
	return nil
}

// evacuateSoleHoldings re-replicates every title held only by the draining
// node onto the live peer with the most residual broker headroom (ties by
// node order), so the drain never makes a title unavailable.
func (s *Service) evacuateSoleHoldings(node NodeID) {
	titles := s.db.Catalog().TitlesHeldBy(node)
	for _, name := range titles {
		holders, err := s.db.Catalog().Holders(name)
		if err != nil {
			continue
		}
		replicated := false
		s.mu.Lock()
		for _, h := range holders {
			if h != node && s.servers[h] != nil && !s.stopped[h] {
				replicated = true
				break
			}
		}
		s.mu.Unlock()
		if replicated {
			continue
		}
		t, err := s.db.Catalog().Title(name)
		if err != nil {
			continue
		}
		for _, target := range s.drainTargets(node) {
			if err := target.Preload(t); err == nil {
				break
			}
		}
	}
}

// drainTargets lists candidate receivers for evacuated titles: live,
// non-draining servers ordered by ascending broker load, then node ID.
func (s *Service) drainTargets(exclude NodeID) []*server.Server {
	type cand struct {
		node NodeID
		srv  *server.Server
		load float64
	}
	var cands []cand
	s.mu.Lock()
	for n, srv := range s.servers {
		if n == exclude || s.stopped[n] {
			continue
		}
		if dir := s.directors[n]; dir != nil && dir.Draining() {
			continue
		}
		load := 0.0
		if brk := s.brokers[n]; brk != nil && brk.CapacityMbps() > 0 {
			load = brk.CommittedMbps() / brk.CapacityMbps()
		}
		cands = append(cands, cand{node: n, srv: srv, load: load})
	}
	s.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].load != cands[j].load {
			return cands[i].load < cands[j].load
		}
		return cands[i].node < cands[j].node
	})
	out := make([]*server.Server, 0, len(cands))
	for _, c := range cands {
		out = append(out, c.srv)
	}
	return out
}

// FinishDrain completes a graceful drain begun with BeginDrain: the member
// announces Left (disseminated in a final gossip round), its holdings are
// withdrawn from the catalog, its gossipers stop, its server closes, its
// registration is removed, and the topology view shrinks — provided the
// remaining graph stays connected (otherwise the node's links are kept as
// dead capacity and only the server-level state is retired).
func (s *Service) FinishDrain(node NodeID) error {
	s.mu.Lock()
	srv := s.servers[node]
	tr := s.trackers[node]
	mg := s.mgossipers[node]
	gsp := s.gossipers[node]
	s.mu.Unlock()
	if srv == nil {
		return fmt.Errorf("dvod: %w: %s", topology.ErrNodeUnknown, node)
	}
	now := s.opts.clock.Now()
	if tr != nil {
		tr.SetLocalState(membership.Left)
	}
	if mg != nil {
		// One final synchronous round pushes the Left announcement out before
		// this gossiper goes silent; peers relay it from there.
		mg.RunOnce()
		mg.Stop()
	}
	for _, name := range s.db.Catalog().TitlesHeldBy(node) {
		_ = s.db.SetHolding(node, name, false, now)
	}
	s.mu.Lock()
	s.stopped[node] = true
	s.mu.Unlock()
	if gsp != nil {
		gsp.Stop()
	}
	if s.poller != nil {
		s.poller.RemoveAgent(node)
	}
	closeErr := srv.Close()
	if err := s.db.UnregisterServer(node); err != nil {
		return err
	}
	if g, err := s.db.Graph().WithoutNode(node); err == nil {
		if g.Validate() == nil {
			if _, err := s.db.SetGraph(g); err != nil {
				return err
			}
		}
	}
	return closeErr
}

// DrainServer gracefully removes one server from the fleet: BeginDrain
// followed immediately by FinishDrain. Deployments with long-lived sessions
// should call the two phases separately and let in-flight watches finish
// between them.
func (s *Service) DrainServer(node NodeID) error {
	if err := s.BeginDrain(node); err != nil {
		return err
	}
	return s.FinishDrain(node)
}

// Close stops polling and shuts every server down. It is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	gossipers := slices.Collect(maps.Values(s.gossipers))
	mgossipers := slices.Collect(maps.Values(s.mgossipers))
	servers := slices.Collect(maps.Values(s.servers))
	s.mu.Unlock()
	for _, gsp := range gossipers {
		gsp.Stop()
	}
	for _, mg := range mgossipers {
		mg.Stop()
	}
	if s.injector != nil {
		s.injector.Stop()
	}
	if s.poller != nil {
		s.poller.Stop()
	}
	// Idle peer connections first, fleet-wide: each one parks a handler on
	// the server it points at, and no server should wait on a handler that a
	// not-yet-closed neighbour's pool still holds open.
	for _, srv := range servers {
		srv.ClosePeerConns()
	}
	var firstErr error
	for _, srv := range servers {
		if err := srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// AddTitle registers a title in the service catalog.
func (s *Service) AddTitle(t Title) error {
	return s.db.Catalog().AddTitle(t)
}

// Titles lists the catalog.
func (s *Service) Titles() []Title { return s.db.Catalog().Titles() }

// Preload places a copy of a title on the node's disk array — the paper's
// initialization phase.
func (s *Service) Preload(node NodeID, title string) error {
	s.mu.Lock()
	srv, ok := s.servers[node]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("dvod: %w: %s", topology.ErrNodeUnknown, node)
	}
	t, err := s.db.Catalog().Title(title)
	if err != nil {
		return err
	}
	return srv.Preload(t)
}

// Holders lists the servers currently storing the title.
func (s *Service) Holders(title string) ([]NodeID, error) {
	return s.db.Catalog().Holders(title)
}

// Player returns a player homed at the given node. The service must be
// started. The player keeps its connection to the home open between
// watches; Close releases it.
func (s *Service) Player(home NodeID, opts ...client.Option) (*Player, error) {
	s.mu.Lock()
	started := s.started
	_, ok := s.servers[home]
	s.mu.Unlock()
	if !started {
		return nil, errors.New("dvod: service not started")
	}
	if !ok {
		return nil, fmt.Errorf("dvod: %w: %s", topology.ErrNodeUnknown, home)
	}
	return client.NewPlayer(home, s.book, opts...)
}

// Plan runs the routing policy for a hypothetical request without
// transferring anything: which server would serve a client homed at home?
// It asks the home's own planner, the one its server plans every cluster
// with, so with WithMembership it skips a holder the home has declared
// Failed or Left.
func (s *Service) Plan(home NodeID, title string) (Decision, error) {
	s.mu.Lock()
	p := s.planners[home]
	s.mu.Unlock()
	if p == nil {
		return Decision{}, fmt.Errorf("dvod: %w: %s", topology.ErrNodeUnknown, home)
	}
	return p.Plan(home, title)
}

// SetLinkTraffic injects an externally measured link load (Mbps) into the
// limited-access database — the administrator/manual path the paper
// describes alongside automatic SNMP insertion.
func (s *Service) SetLinkTraffic(a, b NodeID, usedMbps float64) error {
	return s.db.UpsertLinkStats(topology.MakeLinkID(a, b), usedMbps, s.opts.clock.Now())
}

// LinkUtilization reads the latest recorded utilization of a link.
func (s *Service) LinkUtilization(a, b NodeID) (float64, error) {
	st, err := s.db.LinkStats(topology.MakeLinkID(a, b))
	if err != nil {
		return 0, err
	}
	return st.Utilization, nil
}

// SaveState serializes the service's database — registered servers, link
// statistics, catalog, and holdings — so a later deployment over the same
// topology can resume via LoadState without re-running initialization.
// Disk contents are not saved; preload titles again after LoadState (their
// bytes regenerate deterministically).
func (s *Service) SaveState(w io.Writer) error { return s.db.Save(w) }

// LoadState applies a SaveState snapshot onto a freshly constructed,
// not-yet-populated service over the same topology.
func (s *Service) LoadState(r io.Reader) error { return s.db.Load(r) }

// MetricsSnapshot is a point-in-time copy of one server's metrics.
type MetricsSnapshot = metrics.Snapshot

// Metrics returns a snapshot of every video server's counters (requests,
// clusters served, DMA hits/admissions, fetch retries, resilience counters,
// errors). With an armed fault plan, the injector's own counters (notably
// faults.injected_total) appear under the pseudo-node "_faults".
func (s *Service) Metrics() map[NodeID]MetricsSnapshot {
	s.mu.Lock()
	servers := make(map[NodeID]*server.Server, len(s.servers))
	for node, srv := range s.servers {
		servers[node] = srv
	}
	s.mu.Unlock()
	out := make(map[NodeID]MetricsSnapshot, len(servers)+1)
	for node, srv := range servers {
		out[node] = srv.Metrics().Snapshot()
	}
	if s.injector != nil {
		out["_faults"] = s.injector.Registry().Snapshot()
	}
	return out
}

// FaultEvents returns the armed plan's deterministic activation /
// deactivation sequence (nil without WithFaultPlan). Two runs with the same
// plan and seed return identical sequences — the reproducibility contract
// chaos tests pin against.
func (s *Service) FaultEvents() []FaultLogEntry {
	if s.injector == nil {
		return nil
	}
	return s.injector.Events()
}

// InjectedFaults reports how many faults the armed plan has actually
// injected so far (0 without WithFaultPlan).
func (s *Service) InjectedFaults() int64 {
	if s.injector == nil {
		return 0
	}
	return s.injector.InjectedTotal()
}

// GossipRound drives one synchronous anti-entropy round on every live
// node's gossiper (skipping servers taken down with StopServer). Tests and
// studies running on a virtual clock use it to converge the reservation
// ledger deterministically instead of waiting out wall-clock intervals.
// No-op without WithAdmission or with WithoutLedger.
func (s *Service) GossipRound() {
	for _, node := range s.db.Graph().Nodes() {
		s.mu.Lock()
		gsp := s.gossipers[node]
		down := s.stopped[node]
		s.mu.Unlock()
		if down || gsp == nil {
			continue
		}
		gsp.RunOnce()
	}
}

// MembershipRound drives one synchronous membership gossip round on every
// live node's tracker, in node order — the deterministic counterpart of the
// background loops, used by churn tests and studies on a virtual clock.
// No-op without WithMembership.
func (s *Service) MembershipRound() {
	for _, node := range s.db.Graph().Nodes() {
		s.mu.Lock()
		mg := s.mgossipers[node]
		down := s.stopped[node]
		s.mu.Unlock()
		if down || mg == nil {
			continue
		}
		mg.RunOnce()
	}
}

// MemberStates returns one node's current membership view (nil without
// WithMembership or for unknown viewers).
func (s *Service) MemberStates(viewer NodeID) map[NodeID]MemberState {
	s.mu.Lock()
	tr := s.trackers[viewer]
	s.mu.Unlock()
	if tr == nil {
		return nil
	}
	out := make(map[NodeID]MemberState)
	for _, m := range tr.Members() {
		out[m.Node] = m.State
	}
	return out
}

// LedgerDigests returns each live node's reservation-ledger digest — a
// hash over its full replica state. All digests equal means the replicas
// have converged. Nil without WithAdmission or with WithoutLedger.
func (s *Service) LedgerDigests() map[NodeID]string {
	if s.ledgers == nil {
		return nil
	}
	s.mu.Lock()
	live := make(map[NodeID]*ledger.Ledger, len(s.ledgers))
	for node, led := range s.ledgers {
		if !s.stopped[node] {
			live[node] = led
		}
	}
	s.mu.Unlock()
	out := make(map[NodeID]string, len(live))
	for node, led := range live {
		out[node] = led.Digest()
	}
	return out
}

// CommittedLinkMbps sums every broker's locally committed reservations per
// link — the deployment-wide ground truth the study compares against link
// capacity to detect oversubscription. Nil without WithAdmission.
func (s *Service) CommittedLinkMbps() map[LinkID]float64 {
	if s.brokers == nil {
		return nil
	}
	s.mu.Lock()
	brokers := make([]*admission.Broker, 0, len(s.brokers))
	for _, brk := range s.brokers {
		brokers = append(brokers, brk)
	}
	s.mu.Unlock()
	out := make(map[LinkID]float64)
	for _, brk := range brokers {
		for id, mbps := range brk.LinkReservations() {
			out[id] += mbps
		}
	}
	return out
}

// WatchDialer returns a client dialer routed through the service's fault
// injector, so peer.down and peer.stall faults on the home node sever or
// freeze its local clients' watch connections too. Without an armed plan it
// returns nil, which client.WithDialer treats as the default dialer — safe
// to pass unconditionally.
func (s *Service) WatchDialer(home NodeID) func(addr string) (*transport.Conn, error) {
	if s.injector == nil {
		return nil
	}
	inj := s.injector
	return func(addr string) (*transport.Conn, error) {
		return inj.Dial(home, nil, addr)
	}
}

// WebHandler returns the paper's web interface modules as an http.Handler:
// the full-access module (browse, search, POST /request running the VRA
// through the home's own planner, as Plan does) and
// the limited-access module under /admin (including /admin/metrics) guarded
// by the bearer token (empty token disables the admin endpoints).
func (s *Service) WebHandler(adminToken string) (http.Handler, error) {
	return web.New(web.Config{
		DB:         s.db,
		Planner:    s,
		AdminToken: adminToken,
		Clock:      s.opts.clock,
		Metrics:    s.Metrics,
	})
}

// ServerAddr returns a node's live TCP endpoint ("" before Start).
func (s *Service) ServerAddr(node NodeID) (string, error) {
	s.mu.Lock()
	srv, ok := s.servers[node]
	s.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("dvod: %w: %s", topology.ErrNodeUnknown, node)
	}
	return srv.Addr(), nil
}

// options configures New.
type options struct {
	clusterBytes       int64
	disksPerServer     int
	diskCapacityBytes  int64
	nodeDisks          map[NodeID]diskShape
	snmpInterval       time.Duration
	selector           core.Selector
	clock              clock.Clock
	listenAddrs        map[NodeID]string
	mergeWindow        int
	faultPlan          *faults.Plan
	faultSeed          int64
	noDefense          bool
	admissionMbps      float64
	noLedger           bool
	ledgerInterval     time.Duration
	membershipInterval time.Duration
	frontDoor          bool
	dataDir            string
	prefixBudgetBytes  int64
	relayCohorts       bool
}

type diskShape struct {
	count         int
	capacityBytes int64
}

func defaultOptions() options {
	return options{
		clusterBytes:      256 << 10,
		disksPerServer:    4,
		diskCapacityBytes: 64 << 20,
		nodeDisks:         map[NodeID]diskShape{},
		snmpInterval:      90 * time.Second,
		selector:          core.VRA{},
		clock:             clock.Wall{},
		listenAddrs:       map[NodeID]string{},
		ledgerInterval:    ledger.DefaultGossipInterval,
	}
}

// arrayShape resolves the disk shape for a node (per-node override or the
// service default).
func (o options) arrayShape(node NodeID) (int, int64) {
	if s, ok := o.nodeDisks[node]; ok {
		return s.count, s.capacityBytes
	}
	return o.disksPerServer, o.diskCapacityBytes
}

func (o options) validate() error {
	switch {
	case o.clusterBytes <= 0:
		return fmt.Errorf("dvod: bad cluster size %d", o.clusterBytes)
	case o.disksPerServer <= 0:
		return fmt.Errorf("dvod: bad disk count %d", o.disksPerServer)
	case o.diskCapacityBytes <= 0:
		return fmt.Errorf("dvod: bad disk capacity %d", o.diskCapacityBytes)
	case o.snmpInterval <= 0:
		return fmt.Errorf("dvod: bad SNMP interval %v", o.snmpInterval)
	case o.selector == nil:
		return errors.New("dvod: nil selector")
	case o.clock == nil:
		return errors.New("dvod: nil clock")
	case o.mergeWindow < 0:
		return fmt.Errorf("dvod: negative merge window %d", o.mergeWindow)
	case o.admissionMbps < 0:
		return fmt.Errorf("dvod: negative admission capacity %v", o.admissionMbps)
	case o.ledgerInterval <= 0:
		return fmt.Errorf("dvod: bad ledger gossip interval %v", o.ledgerInterval)
	case o.membershipInterval < 0:
		return fmt.Errorf("dvod: negative membership interval %v", o.membershipInterval)
	}
	if o.noLedger && o.admissionMbps <= 0 {
		return errors.New("dvod: WithoutLedger needs WithAdmission")
	}
	if o.prefixBudgetBytes < 0 {
		return fmt.Errorf("dvod: negative prefix budget %d", o.prefixBudgetBytes)
	}
	if o.relayCohorts && o.mergeWindow <= 0 {
		return errors.New("dvod: WithCohortRelay needs WithMergeWindow")
	}
	for node, s := range o.nodeDisks {
		if s.count <= 0 || s.capacityBytes <= 0 {
			return fmt.Errorf("dvod: bad disk shape for %s: %d × %d", node, s.count, s.capacityBytes)
		}
	}
	return nil
}

// Option customizes New.
type Option func(*options)

// WithClusterBytes sets the DMA/VRA cluster size c (default 256 KiB).
func WithClusterBytes(c int64) Option {
	return func(o *options) { o.clusterBytes = c }
}

// WithDisks sets each server's array shape (default 4 × 64 MiB).
func WithDisks(count int, capacityBytes int64) Option {
	return func(o *options) {
		o.disksPerServer = count
		o.diskCapacityBytes = capacityBytes
	}
}

// WithFileBackedDisks stores every disk block as a named file under
// dir/<node>/<disk>/ instead of in memory. Content, layout, fault injection
// and delivery are identical to the in-memory store, whose blocks on Linux
// are unlinked tmpfs files: resident clusters are served straight from the
// block file's descriptor with sendfile(2) (DESIGN.md § "Kernel delivery
// path"). The directory is created as needed and not cleaned up on Close —
// callers own its lifetime (tests pass t.TempDir()).
func WithFileBackedDisks(dir string) Option {
	return func(o *options) { o.dataDir = dir }
}

// WithNodeDisks overrides the array shape of one node (heterogeneous
// deployments; e.g. a small edge cache next to large origin servers).
func WithNodeDisks(node NodeID, count int, capacityBytes int64) Option {
	return func(o *options) {
		o.nodeDisks[node] = diskShape{count: count, capacityBytes: capacityBytes}
	}
}

// WithSNMPInterval sets the statistics refresh period (default 90 s; the
// paper suggests 1-2 minutes).
func WithSNMPInterval(d time.Duration) Option {
	return func(o *options) { o.snmpInterval = d }
}

// WithSelector replaces the routing policy (default: the paper's VRA).
func WithSelector(sel core.Selector) Option {
	return func(o *options) { o.selector = sel }
}

// WithListenAddr pins one node's TCP endpoint (default 127.0.0.1:0).
func WithListenAddr(node NodeID, addr string) Option {
	return func(o *options) { o.listenAddrs[node] = addr }
}

// WithClock substitutes the time source (tests).
func WithClock(c clock.Clock) Option {
	return func(o *options) { o.clock = c }
}

// WithMergeWindow enables shared-prefix stream merging on every server:
// concurrent Watch sessions of one title starting within window clusters of
// each other share a single base stream (one disk read per cluster, fanned
// out), with late joiners patched privately. Disabled by default — the
// paper's delivery is one stream per session.
func WithMergeWindow(window int) Option {
	return func(o *options) { o.mergeWindow = window }
}

// WithFaultPlan arms a deterministic fault schedule across the whole
// deployment: peer dials refuse and live streams cut under link.down /
// peer.down windows, peer.stall freezes bytes, and the disk.* faults act on
// each node's array. The seed pins every randomized choice the injector
// makes, so one (plan, seed) pair reproduces the identical fault sequence
// run after run. The plan starts ticking at Service.Start.
func WithFaultPlan(plan FaultPlan, seed int64) Option {
	return func(o *options) {
		p := plan
		o.faultPlan = &p
		o.faultSeed = seed
	}
}

// WithoutDefense disables the self-healing delivery plane — per-peer
// circuit breakers and hedged fetches — leaving only bare next-replica
// failover. The chaos study's control arm; production deployments leave the
// defense on.
func WithoutDefense() Option {
	return func(o *options) { o.noDefense = true }
}

// WithAdmission gives every video server an admission broker with the
// given deliverable capacity (Mbps) and — unless WithoutLedger is also
// set — a replica of the gossip-replicated reservation ledger, so link
// headroom checks see every server's committed reservations, not just the
// local ones. Disabled by default.
func WithAdmission(capacityMbps float64) Option {
	return func(o *options) { o.admissionMbps = capacityMbps }
}

// WithLedgerGossipInterval tunes the reservation ledger's anti-entropy
// cadence (default ledger.DefaultGossipInterval, 250 ms). The lease TTL
// scales with it (40 rounds), so slower gossip also means slower reclaim
// of a dead server's reservations.
func WithLedgerGossipInterval(d time.Duration) Option {
	return func(o *options) { o.ledgerInterval = d }
}

// WithoutLedger keeps admission control purely per-server: each broker
// sees only its own reservations, as before the ledger existed. The
// Ext-16 study's control arm; requires WithAdmission.
func WithoutLedger() Option {
	return func(o *options) { o.noLedger = true }
}

// WithMembership runs the SWIM-style gossip membership layer on every node:
// trackers exchange (incarnation, heartbeat, state) views on the given
// cadence (0 uses membership.DefaultGossipInterval, 250 ms — interval-aligned
// with the ledger gossiper), round-counted failure detection marks quiet
// members suspect and then failed, and each node's VRA planner skips a holder
// its own tracker has declared Failed or Left; fail/leave events also reclaim
// the member's ledger leases at once. Without it a dead peer is found by its
// failed fetch and its breaker alone. Required for churn-aware redirects and
// graceful drains announced fleet-wide;
// AddServer and DrainServer work without it, coordinating through the
// shared topology view alone. Disabled by default.
func WithMembership(interval time.Duration) Option {
	return func(o *options) {
		if interval <= 0 {
			interval = membership.DefaultGossipInterval
		}
		o.membershipInterval = interval
	}
}

// WithPrefixBudget gives every video server a prefix replication tier: a
// dedicated local store of budgetBytes onto which the server pins the first
// K(title) clusters of popular titles, K chosen per title by a knapsack over
// the budget weighted by DMA popularity points. Watches then stream those
// leading clusters straight off local disk — zero cross-network round trips
// at startup — while the VRA plans only the tail, and late joiners' merge
// patches come from the prefix instead of origin reads. Re-solve epochs run
// when Service.PrefixResolve is called. Disabled by default.
func WithPrefixBudget(budgetBytes int64) Option {
	return func(o *options) { o.prefixBudgetBytes = budgetBytes }
}

// WithCohortRelay lets a server whose merge cohort streams a non-resident
// title subscribe once to the title's origin (relay.join) and fan that single
// upstream stream out to all local cohort members, instead of fetching every
// tail cluster per-watch. On the origin side the relay session joins the
// origin's own merge registry, so N relay servers share one disk-read stream.
// A broken upstream falls back to per-cluster peer fetches after one
// re-subscribe attempt. Requires WithMergeWindow. Disabled by default.
func WithCohortRelay() Option {
	return func(o *options) { o.relayCohorts = true }
}

// WithFrontDoor turns every node into a stateless redirect front door: a
// watch request for a title the node does not hold locally is answered with
// a typed watch.redirect toward the best replica (scored by broker load and
// peer health over the membership view), which clients follow transparently
// within a bounded hop count. Without it nodes redirect only while
// draining and proxy remote titles themselves, exactly as before. Disabled
// by default.
func WithFrontDoor() Option {
	return func(o *options) { o.frontDoor = true }
}
