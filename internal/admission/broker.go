package admission

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"

	"dvod/internal/clock"
	"dvod/internal/ledger"
	"dvod/internal/metrics"
	"dvod/internal/topology"
)

// Reason labels why a request was refused. Reason values are immutable.
type Reason string

// Rejection reasons.
const (
	// ReasonSessions: the concurrent-session cap is reached.
	ReasonSessions Reason = "sessions"
	// ReasonCapacity: the node cannot commit the bitrate within the
	// class's share, even after every allowed degradation step.
	ReasonCapacity Reason = "capacity"
	// ReasonLink: a link on the session's route lacks residual headroom.
	ReasonLink Reason = "link"
	// ReasonClass: the request names an unconfigured class.
	ReasonClass Reason = "class"
)

// ErrRejected is the sentinel all admission rejections wrap.
var ErrRejected = errors.New("admission rejected")

// DefaultShards is the link/shared-group shard count New uses when
// Config.Shards is zero. Shards bound lock contention on the reservation
// maps; node-level aggregates are atomics at any count.
const DefaultShards = 8

// linkSeed keys the link- and share-key hash shard functions.
var linkSeed = maphash.MakeSeed()

// RejectedError reports one refused request with enough detail for a typed
// wire response. RejectedError values are immutable once returned.
type RejectedError struct {
	Class      Class
	Reason     Reason
	NeededMbps float64
	// FreeMbps is the bandwidth that was available to the class when the
	// request was refused (meaningful for capacity/link rejections).
	FreeMbps float64
}

// Error implements error.
func (e *RejectedError) Error() string {
	switch e.Reason {
	case ReasonCapacity, ReasonLink:
		return fmt.Sprintf("admission rejected (%s, class %s): need %.3f Mbps, %.3f free",
			e.Reason, e.Class, e.NeededMbps, e.FreeMbps)
	default:
		return fmt.Sprintf("admission rejected (%s, class %s)", e.Reason, e.Class)
	}
}

// Unwrap lets errors.Is match ErrRejected.
func (e *RejectedError) Unwrap() error { return ErrRejected }

// Request asks the broker to admit one session. Request values are read-only
// to the broker.
type Request struct {
	// Class is the user class; zero value means Standard.
	Class Class
	// Title names the requested video (reporting only).
	Title string
	// BitrateMbps is the title's full playback rate.
	BitrateMbps float64
	// Links are the emulated links the session's route will traverse
	// (empty for local service). The broker reserves the granted bitrate
	// on each.
	Links []topology.LinkID
}

// Grant is one admitted session's reservation. Callers must Release it when
// the session ends. Release and Migrate may be called concurrently (a
// per-grant lock serializes them); the exported fields are written only
// before the grant is returned and must be treated as read-only by callers.
type Grant struct {
	id    int64
	Class Class
	Title string
	// BitrateMbps is the admitted rate — below the requested rate when
	// Degraded.
	BitrateMbps float64
	Degraded    bool
	// mu guards released and links against a Release racing a Migrate.
	mu    sync.Mutex
	links []topology.LinkID
	// shareKey is non-empty for sessions admitted through AdmitWaitShared:
	// the node/link bandwidth is owned by the shared group, not this grant.
	shareKey string
	released bool
}

// Shared reports whether the grant rides a shared admission group (its
// bandwidth is committed once for the whole group, not per session). Safe
// for concurrent use (shareKey is immutable after the grant is returned).
func (g *Grant) Shared() bool { return g.shareKey != "" }

// Links returns a copy of the emulated links this grant holds reservations
// on (empty for shared grants — the group owns those). Safe for concurrent
// use with Release/Migrate.
func (g *Grant) Links() []topology.LinkID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]topology.LinkID(nil), g.links...)
}

// sharedGroup is one stream-merging cohort's single bandwidth reservation.
// The first session through AdmitWaitShared commits rate and links; later
// sessions with the same key attach for free and the reservation is returned
// when the last member releases. Fields are guarded by the owning shared
// shard's lock.
type sharedGroup struct {
	rate     float64
	degraded bool
	links    []topology.LinkID
	count    int
	// class is the first admitter's class — the class the group's ledger
	// reservation was written under, which may differ from the class of the
	// member that happens to leave last.
	class Class
}

// Config assembles a Broker. Config is read-only after New.
type Config struct {
	// Node names the server this broker protects (reporting only).
	Node topology.NodeID
	// CapacityMbps is the node's deliverable bandwidth; committed session
	// bitrates may never exceed it.
	CapacityMbps float64
	// MaxSessions caps concurrent admitted sessions; zero defaults to 64.
	MaxSessions int
	// Shards is the link-reservation and shared-group shard count; zero
	// defaults to DefaultShards. More shards reduce lock contention on the
	// per-link reservation maps under concurrent watch setup/teardown.
	Shards int
	// Classes maps each served class to its policy; nil uses
	// DefaultPolicies().
	Classes map[Class]Policy
	// Snapshot optionally supplies the live network view used to check
	// residual headroom on the request's links (the SNMP-fed view the VRA
	// also reads). Nil skips link checks. The hook must be safe for
	// concurrent use (db.DB.Snapshot is: it is a lock-free atomic load).
	Snapshot func() (*topology.Snapshot, error)
	// Ledger optionally shares this broker's link reservations with every
	// other server (and folds theirs in): when set, link headroom checks
	// subtract the other origins' gossip-replicated reservations, and every
	// grant/release/migration is mirrored into the ledger — always after
	// the local shard state has been updated, so a concurrent reader sees
	// the local reservation at least as early as the gossiped one (the
	// conservative direction). Nil keeps the broker purely per-server.
	Ledger *ledger.Ledger
	// Clock drives queue deadlines; nil is wall time.
	Clock clock.Clock
	// Metrics receives per-class admitted/degraded/queued/rejected
	// counters and committed-bandwidth gauges; nil allocates a private
	// registry.
	Metrics *metrics.Registry
}

// ClassCounts is one class's admission tally — an immutable snapshot
// returned by Counts.
type ClassCounts struct {
	Admitted int64 `json:"admitted"`
	Degraded int64 `json:"degraded"`
	Queued   int64 `json:"queued"`
	Rejected int64 `json:"rejected"`
}

// classTally is the live, atomically updated form of ClassCounts, with the
// per-class metric counters cached so the hot path never takes the metrics
// registry lock.
type classTally struct {
	admitted, degraded, queued, rejected     atomic.Int64
	mAdmitted, mDegraded, mQueued, mRejected *metrics.Counter
}

// linkShard is one link-hashed slice of the per-link reservation map. mu
// guards the map; at most one link shard lock is ever held at a time, so
// shard locks cannot deadlock among themselves.
type linkShard struct {
	mu       sync.Mutex
	reserved map[topology.LinkID]float64
}

// sharedShard is one key-hashed slice of the shared-group table. Lock order:
// a shared shard lock may be taken before link shard locks, never after.
type sharedShard struct {
	mu     sync.Mutex
	groups map[string]*sharedGroup
}

// atomicMbps is a float64 bandwidth aggregate updated with CAS loops, so the
// node-level committed total needs no lock.
type atomicMbps struct{ bits atomic.Uint64 }

func (a *atomicMbps) load() float64 { return math.Float64frombits(a.bits.Load()) }

// add applies delta; negative results within float slop clamp to zero, like
// the epsilon the pre-sharded broker used.
func (a *atomicMbps) add(delta float64) {
	for {
		old := a.bits.Load()
		next := math.Float64frombits(old) + delta
		if delta < 0 && next < 1e-9 {
			next = 0
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// tryAddBounded adds delta only if the result stays at or below bound,
// reporting success. This is the lock-free form of "check capacity, then
// commit" — the CAS makes the check and the commit one atomic step.
func (a *atomicMbps) tryAddBounded(delta, bound float64) bool {
	for {
		old := a.bits.Load()
		next := math.Float64frombits(old) + delta
		if next > bound {
			return false
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return true
		}
	}
}

// Broker is a per-server bandwidth broker. All methods are safe for
// concurrent use.
//
// # Concurrency model
//
// There is no broker-wide mutex. Node-level aggregates (committed Mbps,
// session count, grant IDs) are atomics with CAS-bounded updates; per-link
// reservations and shared groups live in hash shards with per-shard locks;
// the queue-wakeup channel sits behind its own small mutex. Admission is
// optimistic: a request takes its session slot and committed bandwidth with
// bounded CAS steps, then reserves its links one shard at a time, rolling
// everything back if any step refuses. Transient
// holds from a request that later rolls back can only make a concurrent
// admission more conservative, never oversubscribe, and every rollback
// signals queued AdmitWait callers to re-check. See DESIGN.md "Concurrency
// model & sharding" for the invariants and lock order.
type Broker struct {
	cfg Config

	committed atomicMbps   // Mbps committed across all sessions
	sessions  atomic.Int64 // admitted, unreleased sessions
	nextID    atomic.Int64

	links  []*linkShard
	shared []*sharedShard

	// counts maps Class → *classTally; configured classes are preloaded,
	// unknown rejected classes are added on first account.
	counts sync.Map

	// waitMu guards changed, which is closed and replaced whenever capacity
	// may have freed, so queued AdmitWait calls re-check.
	waitMu  sync.Mutex
	changed chan struct{}

	// Cached gauge handles so the grant/release paths never take the
	// metrics registry lock.
	gCommitted, gSessions *metrics.Gauge
	cMigrations           *metrics.Counter
}

// New validates the configuration and builds a broker.
func New(cfg Config) (*Broker, error) {
	if cfg.CapacityMbps <= 0 {
		return nil, fmt.Errorf("admission: non-positive capacity %g", cfg.CapacityMbps)
	}
	if cfg.MaxSessions < 0 {
		return nil, fmt.Errorf("admission: negative session cap %d", cfg.MaxSessions)
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = 64
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("admission: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Classes == nil {
		cfg.Classes = DefaultPolicies()
	}
	if err := validatePolicies(cfg.Classes); err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	b := &Broker{
		cfg:         cfg,
		links:       make([]*linkShard, cfg.Shards),
		shared:      make([]*sharedShard, cfg.Shards),
		changed:     make(chan struct{}),
		gCommitted:  cfg.Metrics.Gauge("admission.committed_mbps"),
		gSessions:   cfg.Metrics.Gauge("admission.sessions"),
		cMigrations: cfg.Metrics.Counter("admission.migrations"),
	}
	for i := range b.links {
		b.links[i] = &linkShard{reserved: make(map[topology.LinkID]float64)}
		b.shared[i] = &sharedShard{groups: make(map[string]*sharedGroup)}
	}
	for c := range cfg.Classes {
		b.tally(c)
	}
	return b, nil
}

// Node returns the protected node. Safe for concurrent use (immutable).
func (b *Broker) Node() topology.NodeID { return b.cfg.Node }

// CapacityMbps returns the configured node capacity. Safe for concurrent use
// (immutable).
func (b *Broker) CapacityMbps() float64 { return b.cfg.CapacityMbps }

// MaxSessions returns the concurrent-session cap. Safe for concurrent use
// (immutable).
func (b *Broker) MaxSessions() int { return b.cfg.MaxSessions }

// Shards returns the configured link/shared-group shard count. Safe for
// concurrent use (immutable).
func (b *Broker) Shards() int { return b.cfg.Shards }

// CommittedMbps returns the bandwidth currently committed to sessions.
// Safe for concurrent use (atomic load).
func (b *Broker) CommittedMbps() float64 { return b.committed.load() }

// Sessions returns the number of admitted, unreleased sessions. Safe for
// concurrent use (atomic load).
func (b *Broker) Sessions() int { return int(b.sessions.Load()) }

// linkShardFor hashes a link ID to its owning reservation shard.
func (b *Broker) linkShardFor(id topology.LinkID) *linkShard {
	return b.links[maphash.String(linkSeed, string(id))%uint64(len(b.links))]
}

// sharedShardFor hashes a share key to its owning shared-group shard.
func (b *Broker) sharedShardFor(key string) *sharedShard {
	return b.shared[maphash.String(linkSeed, key)%uint64(len(b.shared))]
}

// LinkCommittedMbps returns the bandwidth committed on one emulated link.
// It has the signature core.Planner's committed-bandwidth hook expects.
// Safe for concurrent use (brief shard lock).
func (b *Broker) LinkCommittedMbps(id topology.LinkID) float64 {
	sh := b.linkShardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.reserved[id]
}

// LinkReservations returns a copy of the broker's committed bandwidth per
// emulated link (the local half of what the ledger replicates). Safe for
// concurrent use (brief per-shard locks); the result is a fresh map.
func (b *Broker) LinkReservations() map[topology.LinkID]float64 {
	out := make(map[topology.LinkID]float64)
	for _, sh := range b.links {
		sh.mu.Lock()
		for id, v := range sh.reserved {
			out[id] = v
		}
		sh.mu.Unlock()
	}
	return out
}

// Counts returns a copy of the per-class admission tallies. Safe for
// concurrent use (atomic loads); the result is a fresh map.
func (b *Broker) Counts() map[Class]ClassCounts {
	out := make(map[Class]ClassCounts)
	b.counts.Range(func(k, v any) bool {
		t := v.(*classTally)
		out[k.(Class)] = ClassCounts{
			Admitted: t.admitted.Load(),
			Degraded: t.degraded.Load(),
			Queued:   t.queued.Load(),
			Rejected: t.rejected.Load(),
		}
		return true
	})
	return out
}

// tally returns the live tally for a class, creating it on first use.
func (b *Broker) tally(c Class) *classTally {
	if v, ok := b.counts.Load(c); ok {
		return v.(*classTally)
	}
	t := &classTally{
		mAdmitted: b.cfg.Metrics.Counter("admission.admitted." + string(c)),
		mDegraded: b.cfg.Metrics.Counter("admission.degraded." + string(c)),
		mQueued:   b.cfg.Metrics.Counter("admission.queued." + string(c)),
		mRejected: b.cfg.Metrics.Counter("admission.rejected." + string(c)),
	}
	v, _ := b.counts.LoadOrStore(c, t)
	return v.(*classTally)
}

// Admit decides one request immediately: a Grant (possibly degraded) or a
// *RejectedError wrapping ErrRejected. It never queues. Safe for concurrent
// use.
func (b *Broker) Admit(req Request) (*Grant, error) {
	g, err := b.tryAdmit(req)
	if err != nil {
		b.account(req.Class, err, false)
		return nil, err
	}
	b.account(g.Class, nil, false)
	if g.Degraded {
		b.recordDegraded(g.Class)
	}
	return g, nil
}

// AdmitWait decides one request, waiting up to the class's QueueWindow for
// freed capacity when the first attempt fails for a recoverable reason
// (sessions, capacity). Link rejections do not queue: the route itself lacks
// headroom and a different replica should be tried instead. Safe for
// concurrent use.
func (b *Broker) AdmitWait(req Request) (*Grant, error) {
	class, _, err := b.policyFor(req.Class)
	if err != nil {
		b.account(class, err, false)
		return nil, err
	}
	req.Class = class
	pol := b.cfg.Classes[class]
	g, err := b.tryAdmit(req)
	if err == nil {
		b.account(class, nil, false)
		if g.Degraded {
			b.recordDegraded(class)
		}
		return g, nil
	}
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Reason == ReasonLink || rej.Reason == ReasonClass || pol.QueueWindow <= 0 {
		b.account(class, err, false)
		return nil, err
	}
	deadline := b.cfg.Clock.Now().Add(pol.QueueWindow)
	for {
		wait := b.waitChan()
		remaining := deadline.Sub(b.cfg.Clock.Now())
		if remaining <= 0 {
			b.account(class, err, true)
			return nil, err
		}
		select {
		case <-wait:
		case <-b.cfg.Clock.After(remaining):
		}
		g, err = b.tryAdmit(req)
		if err == nil {
			b.account(class, nil, true)
			if g.Degraded {
				b.recordDegraded(class)
			}
			return g, nil
		}
		if !errors.As(err, &rej) || rej.Reason == ReasonLink {
			b.account(class, err, true)
			return nil, err
		}
	}
}

// AdmitWaitShared admits one session into a shared admission group: the
// first session with a given key is admitted like AdmitWait and its rate and
// link reservations become the group's, later sessions with the same key
// attach to the live reservation committing no additional bandwidth (the
// delivery they share is already paid for — this is how stream-merging
// cohorts are accounted). Attaching still occupies a session slot. The
// reservation is returned when the last group member releases its grant. An
// empty key degenerates to AdmitWait. Safe for concurrent use.
func (b *Broker) AdmitWaitShared(req Request, key string) (*Grant, error) {
	if key == "" {
		return b.AdmitWait(req)
	}
	if g, done, err := b.tryAttach(req, key); done {
		return g, err
	}
	g, err := b.AdmitWait(req)
	if err != nil {
		return nil, err
	}
	sh := b.sharedShardFor(key)
	sh.mu.Lock()
	if grp, ok := sh.groups[key]; ok {
		// Another first admitter won the race while we were queued: fold
		// this grant's separate reservation back and attach to the group.
		b.committed.add(-g.BitrateMbps)
		b.unreserveLinks(g.links, g.BitrateMbps)
		if b.cfg.Ledger != nil && len(g.links) > 0 {
			b.cfg.Ledger.Release(g.links, string(g.Class), g.BitrateMbps)
		}
		grp.count++
		g.links = nil
		g.BitrateMbps = grp.rate
		g.Degraded = grp.degraded
		sh.mu.Unlock()
		b.signalChanged()
	} else {
		sh.groups[key] = &sharedGroup{
			rate:     g.BitrateMbps,
			degraded: g.Degraded,
			links:    g.links,
			count:    1,
			class:    g.Class,
		}
		g.links = nil // the group owns the link reservations now
		sh.mu.Unlock()
	}
	g.shareKey = key
	b.publishGauges()
	return g, nil
}

// tryAttach joins a live shared group when one exists for key. done is false
// when there is no group and the caller must run full admission.
func (b *Broker) tryAttach(req Request, key string) (g *Grant, done bool, err error) {
	class, _, err := b.policyFor(req.Class)
	if err != nil {
		b.account(class, err, false)
		return nil, true, err
	}
	sh := b.sharedShardFor(key)
	sh.mu.Lock()
	grp, ok := sh.groups[key]
	if !ok {
		sh.mu.Unlock()
		return nil, false, nil
	}
	if !b.takeSessionSlot() {
		sh.mu.Unlock()
		err := &RejectedError{Class: class, Reason: ReasonSessions, NeededMbps: req.BitrateMbps}
		b.account(class, err, false)
		return nil, true, err
	}
	grp.count++
	g = &Grant{
		id:          b.nextID.Add(1),
		Class:       class,
		Title:       req.Title,
		BitrateMbps: grp.rate,
		Degraded:    grp.degraded,
		shareKey:    key,
	}
	sh.mu.Unlock()
	b.publishGauges()
	b.account(class, nil, false)
	if g.Degraded {
		b.recordDegraded(class)
	}
	return g, true, nil
}

// Release returns a grant's bandwidth and session slot. For shared grants
// the group's bandwidth and link reservations are returned only when the
// last member leaves. It is idempotent and safe for concurrent use,
// including concurrently with Migrate on the same grant.
func (b *Broker) Release(g *Grant) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if g.released {
		g.mu.Unlock()
		return
	}
	g.released = true
	rate, links, class := g.BitrateMbps, g.links, g.Class
	key := g.shareKey
	g.mu.Unlock()
	b.sessions.Add(-1)
	if key != "" {
		rate, links = 0, nil
		if grpRate, grpLinks, grpClass, last := b.leaveShared(key); last {
			rate, links, class = grpRate, grpLinks, grpClass
		}
	}
	if rate > 0 {
		b.committed.add(-rate)
		b.unreserveLinks(links, rate)
		if b.cfg.Ledger != nil && len(links) > 0 {
			b.cfg.Ledger.Release(links, string(class), rate)
		}
	}
	b.signalChanged()
	b.publishGauges()
}

// leaveShared removes one member from the key's group, returning the group's
// reservation when the leaver was the last member.
func (b *Broker) leaveShared(key string) (rate float64, links []topology.LinkID, class Class, last bool) {
	sh := b.sharedShardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	grp, ok := sh.groups[key]
	if !ok {
		return 0, nil, "", false
	}
	grp.count--
	if grp.count > 0 {
		return 0, nil, "", false
	}
	delete(sh.groups, key)
	return grp.rate, grp.links, grp.class, true
}

// Migrate moves a live grant's link reservations to a new route — the
// mid-stream case where the VRA re-plans a session across a cluster boundary
// and the bandwidth must follow the stream. Shared grants are skipped (the
// group, not the member, owns the reservations), as are released grants and
// no-op moves. Returns whether a migration happened. Safe for concurrent
// use, including concurrently with Release on the same grant.
func (b *Broker) Migrate(g *Grant, newLinks []topology.LinkID) bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	if g.released || g.shareKey != "" || sameLinkSet(g.links, newLinks) {
		g.mu.Unlock()
		return false
	}
	rate, old := g.BitrateMbps, g.links
	g.links = append([]topology.LinkID(nil), newLinks...)
	moved := g.links
	g.mu.Unlock()
	b.unreserveLinks(old, rate)
	b.reserveLinksForced(moved, rate)
	if b.cfg.Ledger != nil {
		if len(old) > 0 {
			b.cfg.Ledger.Release(old, string(g.Class), rate)
		}
		if len(moved) > 0 {
			b.cfg.Ledger.Reserve(moved, string(g.Class), rate)
		}
	}
	b.cMigrations.Inc()
	// Old links freed headroom: wake queued admits.
	b.signalChanged()
	b.publishGauges()
	return true
}

// sameLinkSet reports whether two routes reserve the same link multiset.
func sameLinkSet(a, b []topology.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[topology.LinkID]int, len(a))
	for _, id := range a {
		counts[id]++
	}
	for _, id := range b {
		counts[id]--
		if counts[id] < 0 {
			return false
		}
	}
	return true
}

// policyFor resolves the (possibly empty) wire class to a configured policy.
func (b *Broker) policyFor(c Class) (Class, Policy, error) {
	if c == "" {
		c = Standard
	}
	pol, ok := b.cfg.Classes[c]
	if !ok {
		return c, Policy{}, &RejectedError{Class: c, Reason: ReasonClass}
	}
	return c, pol, nil
}

// takeSessionSlot claims one session slot with a CAS loop bounded by the
// configured cap, reporting success.
func (b *Broker) takeSessionSlot() bool {
	cap := int64(b.cfg.MaxSessions)
	for {
		cur := b.sessions.Load()
		if cur >= cap {
			return false
		}
		if b.sessions.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// waitChan returns the current wakeup channel queued admits select on.
func (b *Broker) waitChan() chan struct{} {
	b.waitMu.Lock()
	defer b.waitMu.Unlock()
	return b.changed
}

// signalChanged wakes every queued AdmitWait so it re-checks capacity.
func (b *Broker) signalChanged() {
	b.waitMu.Lock()
	close(b.changed)
	b.changed = make(chan struct{})
	b.waitMu.Unlock()
}

// tryAdmit is one non-blocking admission attempt.
//
// The attempt is optimistic: it claims the session slot, then CAS-adds the
// rate into the committed total bounded by the class cap, then reserves each
// route link under its shard lock — and rolls back everything
// claimed so far whenever a later step refuses. A transient hold can briefly
// make a concurrent request see less capacity (the conservative direction);
// rollbacks signal queued admits so nobody waits on capacity that a failed
// attempt gave back.
func (b *Broker) tryAdmit(req Request) (*Grant, error) {
	class, pol, err := b.policyFor(req.Class)
	if err != nil {
		return nil, err
	}
	if req.BitrateMbps <= 0 {
		return nil, fmt.Errorf("admission: non-positive bitrate %g", req.BitrateMbps)
	}
	// Read the SNMP view before claiming anything; it is immutable once
	// built (and with the sharded db, fetching it is a lock-free load).
	var snap *topology.Snapshot
	if b.cfg.Snapshot != nil && len(req.Links) > 0 {
		if snap, err = b.cfg.Snapshot(); err != nil {
			return nil, fmt.Errorf("admission snapshot: %w", err)
		}
	}
	if !b.takeSessionSlot() {
		return nil, &RejectedError{Class: class, Reason: ReasonSessions, NeededMbps: req.BitrateMbps}
	}
	classCap := pol.MaxShare * b.cfg.CapacityMbps
	factors := append([]float64{1}, pol.DegradeSteps...)
	reason := ReasonCapacity
	free := classCap - b.committed.load()
	for _, f := range factors {
		rate := req.BitrateMbps * f
		if !b.committed.tryAddBounded(rate, classCap) {
			continue
		}
		if snap != nil {
			if ok, linkFree := b.reserveLinks(snap, req.Links, rate, pol.MaxShare, class); !ok {
				b.committed.add(-rate)
				reason = ReasonLink
				if linkFree < free {
					free = linkFree
				}
				continue
			}
		} else if len(req.Links) > 0 {
			// No network view wired: reserve without headroom checks, as
			// the pre-sharded broker did.
			b.reserveLinksForced(req.Links, rate)
		}
		g := &Grant{
			id:          b.nextID.Add(1),
			Class:       class,
			Title:       req.Title,
			BitrateMbps: rate,
			Degraded:    f < 1,
			links:       append([]topology.LinkID(nil), req.Links...),
		}
		// Ledger publish ordering: the shard state above is already
		// visible, so remote brokers can only over-count, never under.
		if b.cfg.Ledger != nil && len(g.links) > 0 {
			b.cfg.Ledger.Reserve(g.links, string(class), rate)
		}
		b.publishGauges()
		return g, nil
	}
	b.sessions.Add(-1)
	b.signalChanged()
	if free < 0 {
		free = 0
	}
	return nil, &RejectedError{Class: class, Reason: reason, NeededMbps: req.BitrateMbps, FreeMbps: free}
}

// reserveLinks walks the route reserving rate on each link under that link's
// shard lock: a link carries the rate when it has residual physical headroom
// (capacity − SNMP-observed use − broker-committed bandwidth) and stays
// inside the class's per-link trunk reservation, CalibratedLinkShare of the
// link's capacity — on thin links the flat MaxShare is tightened so at least
// one full-rate session of a better class still fits. Observed use may
// already include committed sessions' traffic, so the check is conservative
// under load — the safe direction for admission. When a ledger is
// configured, the other servers' gossip-replicated reservations are
// subtracted too, so two brokers sharing a trunk cannot jointly oversubscribe
// it. On the first link that refuses, every link reserved so far is rolled
// back and the minimum free bandwidth seen is returned for the typed
// rejection. Only one shard lock is held at a time.
func (b *Broker) reserveLinks(snap *topology.Snapshot, links []topology.LinkID, rate, share float64, class Class) (bool, float64) {
	minFree := 0.0
	first := true
	for i, id := range links {
		l, err := snap.Graph().LinkByID(id)
		if err != nil {
			b.unreserveLinks(links[:i], rate)
			return false, 0
		}
		sh := b.linkShardFor(id)
		sh.mu.Lock()
		committed := sh.reserved[id]
		classCommitted := committed
		if b.cfg.Ledger != nil {
			committed += b.cfg.Ledger.RemoteReservedMbps(id)
			classCommitted += b.cfg.Ledger.RemoteClassReservedMbps(id, string(class))
		}
		freeMbps := l.CapacityMbps*(1-snap.Utilization(id)) - committed
		classFree := CalibratedLinkShare(share, l.CapacityMbps, rate)*l.CapacityMbps - classCommitted
		if classFree < freeMbps {
			freeMbps = classFree
		}
		if freeMbps < 0 {
			freeMbps = 0
		}
		if first || freeMbps < minFree {
			minFree = freeMbps
			first = false
		}
		if freeMbps < rate {
			sh.mu.Unlock()
			b.unreserveLinks(links[:i], rate)
			return false, minFree
		}
		sh.reserved[id] += rate
		sh.mu.Unlock()
	}
	return true, minFree
}

// reserveLinksForced adds rate to each link unconditionally — the migration
// path, where the stream already flows and the reservation must follow it.
func (b *Broker) reserveLinksForced(links []topology.LinkID, rate float64) {
	for _, id := range links {
		sh := b.linkShardFor(id)
		sh.mu.Lock()
		sh.reserved[id] += rate
		sh.mu.Unlock()
	}
}

// unreserveLinks subtracts rate from each link under its shard lock,
// dropping entries that reach zero (with the same epsilon the pre-sharded
// broker used against float drift).
func (b *Broker) unreserveLinks(links []topology.LinkID, rate float64) {
	for _, id := range links {
		sh := b.linkShardFor(id)
		sh.mu.Lock()
		sh.reserved[id] -= rate
		if sh.reserved[id] < 1e-9 {
			delete(sh.reserved, id)
		}
		sh.mu.Unlock()
	}
}

// account updates counters after a final admission outcome.
func (b *Broker) account(class Class, err error, waited bool) {
	if class == "" {
		class = Standard
	}
	t := b.tally(class)
	if waited {
		t.queued.Add(1)
		t.mQueued.Inc()
	}
	switch {
	case err == nil:
		t.admitted.Add(1)
		t.mAdmitted.Inc()
	default:
		t.rejected.Add(1)
		t.mRejected.Inc()
	}
}

// recordDegraded bumps the degraded tally for grants handed out below the
// requested rate. tryAdmit cannot do it itself (account runs later), so the
// admit paths call this after a degraded grant.
func (b *Broker) recordDegraded(class Class) {
	t := b.tally(class)
	t.degraded.Add(1)
	t.mDegraded.Inc()
}

// publishGauges refreshes the committed/session gauges from the atomic
// aggregates; safe to call from any goroutine without locks.
func (b *Broker) publishGauges() {
	b.gCommitted.Set(b.committed.load())
	b.gSessions.Set(float64(b.sessions.Load()))
}
