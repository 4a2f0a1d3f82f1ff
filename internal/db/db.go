// Package db implements the paper's database module: the shared store both
// interface modules read and write. It is conceptually split the way the
// paper splits it:
//
//   - the full-access sub-module (titles available on each server) is the
//     embedded catalog, readable by the user-facing web module;
//   - the limited-access sub-module (network links' bandwidth, SNMP-sampled
//     utilization, server configuration) is writable only by administrators
//     and the SNMP statistics module.
//
// The VRA reads both: candidate servers from the full-access side and link
// weights from the limited-access side, afresh on every request.
//
// # Concurrency model
//
// The watch-planning hot path — Snapshot and the catalog's holder lookups —
// is lock-free: both are served from immutable values swapped through
// atomic.Pointer. Link statistics live in link-hashed shards with per-shard
// writer locks, and every statistics mutation rebuilds and republishes the
// topology snapshot copy-on-write (serialized by a publish lock so a stale
// rebuild can never overwrite a fresher one). The rarely-touched server
// registry keeps a single mutex. See DESIGN.md "Concurrency model &
// sharding".
package db

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dvod/internal/catalog"
	"dvod/internal/topology"
)

// Errors reported by the database module.
var (
	ErrServerExists  = errors.New("server already registered")
	ErrServerUnknown = errors.New("server not registered")
	ErrStale         = errors.New("no statistics recorded for link")
)

// DefaultStatShards is the link-statistics shard count New uses. Shards only
// bound SNMP-writer contention — Snapshot never locks regardless of the
// count.
const DefaultStatShards = 8

// statSeed keys the link-hash shard function.
var statSeed = maphash.MakeSeed()

// ServerEntry is a limited-access record describing one registered video
// server (the configuration the paper's initialization phase collects).
// ServerEntry values are immutable once returned.
type ServerEntry struct {
	Node         topology.NodeID `json:"node"`
	Description  string          `json:"description"`
	RegisteredAt time.Time       `json:"registeredAt"`
}

// LinkStats is a limited-access record: the latest SNMP sample for one link.
// LinkStats values are immutable once returned.
type LinkStats struct {
	ID          topology.LinkID `json:"id"`
	UsedMbps    float64         `json:"usedMbps"`
	Utilization float64         `json:"utilization"`
	UpdatedAt   time.Time       `json:"updatedAt"`
}

// statShard is one link-hashed slice of the SNMP statistics. mu guards the
// map; readers that need point lookups take it briefly, while the planning
// hot path reads the published snapshot instead and never touches it.
type statShard struct {
	mu    sync.Mutex
	stats map[topology.LinkID]LinkStats
}

// DB is the database module. All methods are safe for concurrent use.
//
// The topology is a versioned, atomically swapped view: Graph returns the
// current immutable graph, and SetGraph replaces it wholesale (copy-on-write)
// when the fleet grows or shrinks. Readers that plan per request — the VRA
// planners, the admission broker's snapshot hook, the SNMP agents — re-read
// it every time, so mid-stream re-plans see post-churn links without any
// shared-lock handshake.
//
// The network snapshot is maintained the same way: every statistics or
// topology mutation republishes an immutable *topology.Snapshot, and
// Snapshot is a bare atomic load. Watch planning therefore acquires zero
// mutexes.
type DB struct {
	graph   atomic.Pointer[topology.Graph]
	version atomic.Uint64
	catalog *catalog.Catalog

	shards []*statShard
	// snap is the published network snapshot; snapMu serializes rebuilds so
	// publishes are ordered (a rebuild that began before a concurrent
	// mutation can never overwrite the newer publish).
	snap   atomic.Pointer[topology.Snapshot]
	snapMu sync.Mutex

	// adminMu guards the cold admin plane: the server registry.
	adminMu sync.RWMutex
	servers map[topology.NodeID]ServerEntry
}

// New builds a database over the boot topology with DefaultStatShards
// statistics shards. The graph must be validated by the caller; the DB
// treats each installed graph as immutable (grow or shrink by building a new
// graph and calling SetGraph).
func New(g *topology.Graph) *DB {
	d := &DB{
		catalog: catalog.New(),
		shards:  make([]*statShard, DefaultStatShards),
		servers: make(map[topology.NodeID]ServerEntry),
	}
	for i := range d.shards {
		d.shards[i] = &statShard{stats: make(map[topology.LinkID]LinkStats)}
	}
	d.graph.Store(g)
	d.version.Store(1)
	d.publishSnapshot()
	return d
}

// shardFor hashes a link ID to its owning statistics shard.
func (d *DB) shardFor(id topology.LinkID) *statShard {
	return d.shards[maphash.String(statSeed, string(id))%uint64(len(d.shards))]
}

// Graph returns the current topology view via an atomic load (no locks).
// The returned graph is immutable; callers must not cache it across requests
// if they want to observe churn.
func (d *DB) Graph() *topology.Graph { return d.graph.Load() }

// GraphVersion returns the monotonically increasing version of the current
// topology view (1 for the boot graph). Safe for concurrent use (atomic).
func (d *DB) GraphVersion() uint64 { return d.version.Load() }

// SetGraph atomically installs a new validated topology view — the elastic
// membership layer calls it when a server joins or leaves the fleet. The
// graph must already be validated; the DB treats it as immutable from here
// on. Link statistics for links absent from the new graph are retained but
// filtered out of snapshots until (if ever) the link returns. The network
// snapshot is republished over the new graph before SetGraph returns.
func (d *DB) SetGraph(g *topology.Graph) (uint64, error) {
	if g == nil {
		return 0, errors.New("db: nil graph")
	}
	if err := g.Validate(); err != nil {
		return 0, err
	}
	d.graph.Store(g)
	v := d.version.Add(1)
	d.publishSnapshot()
	return v, nil
}

// Catalog returns the full-access sub-module (itself safe for concurrent
// use with lock-free reads).
func (d *DB) Catalog() *catalog.Catalog { return d.catalog }

// RegisterServer records a video server joining the service (the paper's
// initialization phase). The node must exist in the topology. Safe for
// concurrent use (admin-plane lock).
func (d *DB) RegisterServer(node topology.NodeID, description string, at time.Time) error {
	if !d.Graph().HasNode(node) {
		return fmt.Errorf("%w: %s", topology.ErrNodeUnknown, node)
	}
	d.adminMu.Lock()
	if _, ok := d.servers[node]; ok {
		d.adminMu.Unlock()
		return fmt.Errorf("%w: %s", ErrServerExists, node)
	}
	d.servers[node] = ServerEntry{Node: node, Description: description, RegisteredAt: at}
	d.adminMu.Unlock()
	return nil
}

// UnregisterServer removes a server's registration — the completion of a
// graceful drain. Unknown nodes error. Safe for concurrent use (admin-plane
// lock).
func (d *DB) UnregisterServer(node topology.NodeID) error {
	d.adminMu.Lock()
	if _, ok := d.servers[node]; !ok {
		d.adminMu.Unlock()
		return fmt.Errorf("%w: %s", ErrServerUnknown, node)
	}
	delete(d.servers, node)
	d.adminMu.Unlock()
	return nil
}

// Server returns a registered server's entry. Safe for concurrent use
// (admin-plane lock).
func (d *DB) Server(node topology.NodeID) (ServerEntry, error) {
	d.adminMu.RLock()
	defer d.adminMu.RUnlock()
	e, ok := d.servers[node]
	if !ok {
		return ServerEntry{}, fmt.Errorf("%w: %s", ErrServerUnknown, node)
	}
	return e, nil
}

// Servers returns all registered servers sorted by node ID. Safe for
// concurrent use (admin-plane lock); the result is a fresh slice.
func (d *DB) Servers() []ServerEntry {
	d.adminMu.RLock()
	defer d.adminMu.RUnlock()
	out := make([]ServerEntry, 0, len(d.servers))
	for _, e := range d.servers {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// UpsertLinkStats records the latest SNMP sample for a link. Utilization is
// derived from used bandwidth and the link's configured capacity. Safe for
// concurrent use: the sample lands in the link's shard under that shard's
// lock, then the network snapshot is republished so planners observe it
// lock-free.
func (d *DB) UpsertLinkStats(id topology.LinkID, usedMbps float64, at time.Time) error {
	l, err := d.Graph().LinkByID(id)
	if err != nil {
		return err
	}
	if usedMbps < 0 {
		usedMbps = 0
	}
	s := d.shardFor(id)
	s.mu.Lock()
	s.stats[id] = LinkStats{
		ID:          id,
		UsedMbps:    usedMbps,
		Utilization: usedMbps / l.CapacityMbps,
		UpdatedAt:   at,
	}
	s.mu.Unlock()
	d.publishSnapshot()
	return nil
}

// LinkStats returns the latest sample for a link. Safe for concurrent use
// (brief shard lock).
func (d *DB) LinkStats(id topology.LinkID) (LinkStats, error) {
	if _, err := d.Graph().LinkByID(id); err != nil {
		return LinkStats{}, err
	}
	sh := d.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.stats[id]
	sh.mu.Unlock()
	if !ok {
		return LinkStats{}, fmt.Errorf("%w: %s", ErrStale, id)
	}
	return s, nil
}

// AllLinkStats returns the latest samples for every reported link, sorted by
// link ID. Safe for concurrent use (brief per-shard locks); the result is a
// fresh slice.
func (d *DB) AllLinkStats() []LinkStats {
	var out []LinkStats
	for _, sh := range d.shards {
		sh.mu.Lock()
		for _, s := range sh.stats {
			out = append(out, s)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetHolding records that a node stores (or no longer stores) a title in
// the full-access catalog. Holdings carry no timestamp, so at is not
// stored. Safe for concurrent use (delegates to the sharded catalog).
func (d *DB) SetHolding(node topology.NodeID, title string, holds bool, at time.Time) error {
	return d.catalog.SetHolding(node, title, holds)
}

// Snapshot returns the current published network snapshot: the latest link
// statistics folded over the current graph view. It is a single atomic load
// — zero mutex acquisitions — so per-request planning never contends with
// SNMP writers or other planners. Links with no sample yet are treated as
// idle, matching the paper's behaviour before the first SNMP poll lands;
// samples for links no longer in the view (a shrunk fleet) are filtered out
// at publish time so churn can never poison snapshot construction. The
// returned snapshot is immutable.
func (d *DB) Snapshot() (*topology.Snapshot, error) {
	return d.snap.Load(), nil
}

// publishSnapshot rebuilds the network snapshot from the current shard
// contents and graph and atomically swaps it in. snapMu orders concurrent
// publishes: each rebuild reads the shards after taking the lock, so the
// last store always reflects every mutation that preceded it.
func (d *DB) publishSnapshot() {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	g := d.graph.Load()
	util := make(map[topology.LinkID]float64)
	for _, sh := range d.shards {
		sh.mu.Lock()
		for id, s := range sh.stats {
			if _, err := g.LinkByID(id); err != nil {
				continue
			}
			util[id] = s.Utilization
		}
		sh.mu.Unlock()
	}
	snap, err := topology.NewSnapshot(g, util)
	if err != nil {
		// Unreachable: util is filtered to the graph's own links. Keep the
		// previous snapshot rather than publish a broken one.
		return
	}
	d.snap.Store(snap)
}

// StaleLinks returns links whose latest sample is older than maxAge at the
// given instant (or never reported), sorted. The paper's SNMP module is
// expected to refresh every 1-2 minutes; stale links indicate a dead agent.
// Safe for concurrent use (brief per-shard locks).
func (d *DB) StaleLinks(now time.Time, maxAge time.Duration) []topology.LinkID {
	g := d.Graph()
	var out []topology.LinkID
	for _, l := range g.LinksView() {
		sh := d.shardFor(l.ID)
		sh.mu.Lock()
		s, ok := sh.stats[l.ID]
		sh.mu.Unlock()
		if !ok || now.Sub(s.UpdatedAt) > maxAge {
			out = append(out, l.ID)
		}
	}
	return out
}
