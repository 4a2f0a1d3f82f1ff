// Package merge implements shared-prefix stream merging for the delivery
// plane: when concurrent Watch sessions of one title overlap within a
// configurable window, they are coalesced onto a single *base stream* — one
// disk read per cluster, fanned out to every attached session through
// ref-counted transport.Frame leases — instead of N independent reads. A
// late joiner receives the clusters it missed as a private *patch stream*
// (served by its own handler) and shares the base stream from its join
// position onward, turning the O(N) origin cost of a hot title into O(number
// of cohorts): the chaining/patching result from the VoD multicast
// literature (see PAPERS.md).
//
// Cohort lifecycle:
//
//	Join ──► cohort exists within window? ──no──► new cohort, pump starts
//	              │ yes
//	              ▼
//	    attach at pos P; handler patches [start, P) privately,
//	    then consumes broadcast items [P, end)
//
//	pump: read cluster once ──► Retain per subscriber ──► bounded queues
//	      subscriber queue full ──► evict to unicast (no gap: the
//	      handler resumes private reads at its next index)
//	      all subscribers gone ──► pump stops, cohort unregisters
//
// Pacing: the pump advances while every receiving subscriber has queue
// space, so consumers pace each other within QueueDepth clusters of slack.
// The eviction rule looks at one instant, not at how long a receiver has
// lagged: whenever the pump finds a full queue while another receiving
// subscriber's queue is empty, the full one is evicted. A receiver that
// falls a whole QueueDepth behind a faster one therefore leaves the cohort,
// whether it is wedged or merely descheduled for that long, and its handler
// serves the rest as private unicast; a lag shorter than QueueDepth never
// evicts. One wedged client cannot throttle everyone else.
package merge

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dvod/internal/metrics"
	"dvod/internal/transport"
)

// Item is one broadcast cluster: a shared frame (the subscriber holds one
// reference and must Release it after writing) plus its wire metadata.
type Item struct {
	Frame   *transport.Frame
	Payload transport.ClusterPayload
}

// Source reads one cluster of a cohort's title into a leased frame. It is
// supplied by the server (local array read or peer fetch with failover) and
// is called from the cohort's pump goroutine, never concurrently with
// itself.
type Source func(index int) (*transport.Frame, transport.ClusterPayload, error)

// Config parameterizes a Registry.
type Config struct {
	// Window is the merge window in clusters: a session may attach to a
	// cohort when its start position is within Window clusters of the
	// cohort's base position, on either side. Behind, the gap is served as
	// a patch stream; ahead, the subscriber simply waits for the base to
	// arrive. Must be positive.
	Window int
	// QueueDepth bounds each subscriber's broadcast queue — how far the
	// cohort's consumers may drift apart before the slowest one, once it
	// starves a faster one, is evicted back to unicast. Zero defaults to
	// 2·Window+8, which keeps a patching joiner attached while it serves
	// its (≤ Window) patch.
	QueueDepth int
	// Metrics receives the merge.* counters and gauges; nil allocates a
	// private registry.
	Metrics *metrics.Registry
}

// Registry tracks the active cohorts of one serving node. Safe for
// concurrent use.
type Registry struct {
	cfg Config

	mu      sync.Mutex
	nextID  int64
	cohorts map[string][]*Cohort
	// soloLast holds the titles whose last held cohort ended with a single
	// subscriber: batching did not pay there, so the next held join of the
	// title starts its pump at once (see JoinSourceHold).
	soloLast map[string]struct{}

	gCohorts      *metrics.Gauge
	cCohorts      *metrics.Counter
	cMerged       *metrics.Counter
	cReadsSaved   *metrics.Counter
	cBytesSaved   *metrics.Counter
	cEvictions    *metrics.Counter
	cHolds        *metrics.Counter
	cHoldsSkipped *metrics.Counter
}

// NewRegistry validates the configuration.
func NewRegistry(cfg Config) (*Registry, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("merge: non-positive window %d", cfg.Window)
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("merge: negative queue depth %d", cfg.QueueDepth)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 2*cfg.Window + 8
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &Registry{
		cfg:           cfg,
		cohorts:       make(map[string][]*Cohort),
		soloLast:      make(map[string]struct{}),
		gCohorts:      cfg.Metrics.Gauge("merge.cohorts"),
		cCohorts:      cfg.Metrics.Counter("merge.cohorts_total"),
		cMerged:       cfg.Metrics.Counter("merge.sessions_merged"),
		cReadsSaved:   cfg.Metrics.Counter("merge.disk_reads_saved"),
		cBytesSaved:   cfg.Metrics.Counter("merge.bytes_saved"),
		cEvictions:    cfg.Metrics.Counter("merge.evictions"),
		cHolds:        cfg.Metrics.Counter("merge.holds"),
		cHoldsSkipped: cfg.Metrics.Counter("merge.holds_skipped"),
	}, nil
}

// Window returns the configured merge window in clusters.
func (r *Registry) Window() int { return r.cfg.Window }

// Join attaches a watch session for title (numClusters long, delivery
// starting at start) to a compatible live cohort, creating a new one — with
// this session as its base — when none is within the window. src is only
// used when a cohort is created; an existing cohort keeps reading through
// the source of its base session.
func (r *Registry) Join(title string, numClusters, start int, src Source) (*Sub, error) {
	return r.JoinSourceHold(title, numClusters, start, src, nil, 0)
}

// JoinSourceHold is Join with a source-cleanup hook and an aggregation
// hold-down. closeSrc (may be nil) is invoked exactly once, when the cohort
// pump exits, IF this call created the cohort. When the session attaches to
// an existing cohort instead, src is unused and closeSrc is never invoked —
// a source holding real resources (the relay-cohort upstream connection)
// must therefore acquire them lazily on its first read.
//
// When this call creates the cohort, its pump waits hold before the first
// source read, so near-simultaneous joiners (a flash crowd of downstream
// relay servers, say) all attach at the base position with zero patch
// clusters — the batching idea from the VoD literature. The hold delays only
// the shared stream's first cluster, never a session's locally-served
// prefix, and a hold of zero starts the pump immediately.
//
// The hold is paid only where batching paid last time: when the title's
// last held cohort ended with a single subscriber, the pump starts at once
// (counted merge.holds_skipped; merge.holds counts the holds kept). A title
// with no history, or whose last held cohort was shared, holds as asked.
func (r *Registry) JoinSourceHold(title string, numClusters, start int, src Source, closeSrc func(), hold time.Duration) (*Sub, error) {
	if numClusters <= 0 || start < 0 || start >= numClusters {
		return nil, fmt.Errorf("merge: start %d outside [0, %d)", start, numClusters)
	}
	if src == nil {
		return nil, errors.New("merge: nil source")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.cohorts[title] {
		if s := c.tryJoin(start, numClusters); s != nil {
			r.cMerged.Inc()
			return s, nil
		}
	}
	held := hold > 0
	if held {
		if _, solo := r.soloLast[title]; solo {
			hold = 0
			r.cHoldsSkipped.Inc()
		} else {
			r.cHolds.Inc()
		}
	}
	c := &Cohort{
		id:       r.nextID,
		title:    title,
		end:      numClusters,
		reg:      r,
		src:      src,
		closeSrc: closeSrc,
		held:     held,
		hold:     hold,
		pos:      start,
		subs:     make(map[*Sub]struct{}),
		joined:   1,
	}
	r.nextID++
	c.cond = sync.NewCond(&c.mu)
	sub := &Sub{cohort: c, start: start, created: true, ch: make(chan Item, r.cfg.QueueDepth)}
	c.subs[sub] = struct{}{}
	r.cohorts[title] = append(r.cohorts[title], c)
	r.cCohorts.Inc()
	r.publishCohortsLocked()
	go c.run()
	return sub, nil
}

// ActiveCohorts returns the number of live cohorts (for tests/reports).
func (r *Registry) ActiveCohorts() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, cs := range r.cohorts {
		n += len(cs)
	}
	return n
}

// remove unregisters a finished cohort. A cohort created with a requested
// hold leaves its verdict for the title's next held join: solo or shared.
func (r *Registry) remove(c *Cohort) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.held {
		c.mu.Lock()
		solo := c.joined == 1
		c.mu.Unlock()
		if solo {
			r.soloLast[c.title] = struct{}{}
		} else {
			delete(r.soloLast, c.title)
		}
	}
	list := r.cohorts[c.title]
	for i, x := range list {
		if x == c {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(r.cohorts, c.title)
	} else {
		r.cohorts[c.title] = list
	}
	r.publishCohortsLocked()
}

// publishCohortsLocked refreshes the active-cohorts gauge; callers hold r.mu.
func (r *Registry) publishCohortsLocked() {
	n := 0
	for _, cs := range r.cohorts {
		n += len(cs)
	}
	r.gCohorts.Set(float64(n))
}

// Cohort is one base stream and its attached sessions.
type Cohort struct {
	id       int64
	title    string
	end      int
	reg      *Registry
	src      Source
	closeSrc func()        // optional; invoked once when the pump exits
	held     bool          // created with a requested hold: records its verdict
	hold     time.Duration // aggregation hold-down before the first read

	mu     sync.Mutex
	cond   *sync.Cond
	pos    int // next cluster index the pump will broadcast
	subs   map[*Sub]struct{}
	joined int // subscribers ever attached, the creator included
	done   bool
}

// tryJoin attaches a new subscriber when start is within the window of the
// cohort's position. Returns nil when the cohort is finished, sized for a
// different layout, or out of range.
func (c *Cohort) tryJoin(start, numClusters int) *Sub {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done || numClusters != c.end {
		return nil
	}
	w := c.reg.cfg.Window
	if start < c.pos-w || start > c.pos+w {
		return nil
	}
	s := &Sub{cohort: c, ch: make(chan Item, c.reg.cfg.QueueDepth)}
	s.start = start
	if c.pos > start {
		s.start = c.pos // the gap [start, pos) becomes the patch stream
	}
	c.subs[s] = struct{}{}
	c.joined++
	c.cond.Broadcast()
	return s
}

// run is the cohort's pump: one Source read per cluster, fanned out to every
// subscriber. It exits when the title is exhausted, every subscriber has
// detached, or the source fails (subscribers are then evicted and resume as
// private unicast streams — failover without a gap).
func (c *Cohort) run() {
	// Aggregation hold-down: batch joiners arriving within the hold at the
	// base position before the first read (see JoinSourceHold).
	if c.hold > 0 {
		time.Sleep(c.hold)
	}
	defer func() {
		c.mu.Lock()
		c.done = true
		for s := range c.subs {
			delete(c.subs, s)
			close(s.ch)
		}
		c.mu.Unlock()
		c.reg.remove(c)
		if c.closeSrc != nil {
			c.closeSrc()
		}
	}()
	for {
		c.mu.Lock()
		for !c.readyLocked() {
			c.cond.Wait()
		}
		if len(c.subs) == 0 || c.pos >= c.end {
			c.mu.Unlock()
			return
		}
		idx := c.pos
		c.mu.Unlock()

		frame, payload, err := c.src(idx)
		c.mu.Lock()
		if err != nil {
			// Every subscriber falls back to unicast; its own delivery
			// path retries the remaining replicas independently.
			for s := range c.subs {
				c.evictLocked(s)
			}
			c.mu.Unlock()
			return
		}
		delivered := 0
		for s := range c.subs {
			if idx < s.start {
				continue
			}
			frame.Retain()
			select {
			case s.ch <- Item{Frame: frame, Payload: payload}:
				delivered++
			default:
				frame.Release()
				c.evictLocked(s)
			}
		}
		c.pos = idx + 1
		c.mu.Unlock()
		frame.Release()
		if delivered > 1 {
			c.reg.cReadsSaved.Add(int64(delivered - 1))
			c.reg.cBytesSaved.Add(int64(delivered-1) * payload.Length)
		}
	}
}

// readyLocked reports whether the pump may read the next cluster: every
// receiving subscriber has queue space. When a full queue blocks the pump
// while another subscriber has drained its queue empty — a stalled receiver
// starving the cohort — the stalled subscribers are evicted here and the
// pump proceeds. When every subscriber starts beyond the current position
// (the base left early), the position jumps forward so no cluster is read
// for nobody. Callers hold c.mu.
func (c *Cohort) readyLocked() bool {
	if len(c.subs) == 0 || c.pos >= c.end {
		return true // run() exits
	}
	minStart := -1
	for s := range c.subs {
		if minStart == -1 || s.start < minStart {
			minStart = s.start
		}
	}
	if minStart > c.pos {
		c.pos = minStart
	}
	var full []*Sub
	starving := false
	for s := range c.subs {
		if s.start > c.pos {
			continue // forward joiner, not receiving yet
		}
		switch len(s.ch) {
		case cap(s.ch):
			full = append(full, s)
		case 0:
			starving = true
		}
	}
	if len(full) == 0 {
		return true
	}
	if starving {
		for _, s := range full {
			c.evictLocked(s)
		}
		return true
	}
	return false
}

// evictLocked detaches one subscriber; its handler drains the queue and
// continues unicast. Callers hold c.mu.
func (c *Cohort) evictLocked(s *Sub) {
	s.evicted = true
	delete(c.subs, s)
	close(s.ch)
	c.reg.cEvictions.Inc()
}

// Sub is one session's attachment to a cohort.
type Sub struct {
	cohort  *Cohort
	ch      chan Item
	start   int  // first broadcast index this subscriber receives
	created bool // true for the session that opened the cohort
	evicted bool // guarded by cohort.mu; read after ch closes
}

// CohortID identifies the cohort within the serving node.
func (s *Sub) CohortID() int64 { return s.cohort.id }

// Created reports whether this session opened the cohort (role "base").
func (s *Sub) Created() bool { return s.created }

// Start is the first cluster index the subscriber receives from the base
// stream; clusters before it are the session's patch range.
func (s *Sub) Start() int { return s.start }

// Recv returns the next broadcast item. ok is false once the queue is
// closed: the cohort completed, evicted this subscriber (Evicted), or
// failed over. The caller owns one reference on the returned frame.
func (s *Sub) Recv() (Item, bool) {
	item, ok := <-s.ch
	if ok {
		// A freed slot may unblock the pump. The broadcast happens under
		// the cohort lock so it cannot slip into the window between the
		// pump's readiness check and its cond.Wait.
		c := s.cohort
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}
	return item, ok
}

// Evicted reports whether the subscriber was detached by the cohort (slow
// consumer or source failure) rather than by normal completion. Valid after
// Recv has returned ok == false.
func (s *Sub) Evicted() bool {
	s.cohort.mu.Lock()
	defer s.cohort.mu.Unlock()
	return s.evicted
}

// Leave detaches the subscriber early (client gone, write error) and
// releases every queued frame. It is safe to call after the queue closed.
func (s *Sub) Leave() {
	c := s.cohort
	c.mu.Lock()
	if _, ok := c.subs[s]; ok {
		delete(c.subs, s)
		close(s.ch)
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	for item := range s.ch {
		item.Frame.Release()
	}
}
