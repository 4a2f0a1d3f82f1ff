package membership

import (
	"errors"
	"sort"
	"sync/atomic"

	"dvod/internal/topology"
)

// DefaultMaxHops bounds a redirect chain: a watch request bounced this many
// times is served wherever it landed rather than bounced again, so redirect
// storms cannot strand a client.
const DefaultMaxHops = 3

// DirectorConfig assembles a Director.
type DirectorConfig struct {
	// Self is the node this director fronts. Required.
	Self topology.NodeID
	// Members returns the current membership view. Nil treats every holder
	// as Alive (a front door without the membership layer still balances on
	// placement and load).
	Members func() []Member
	// Holders returns the catalog placement of a title. Required. The
	// director only iterates the returned slice, so a shared read-only
	// view (catalog.HoldersView) is safe and keeps the per-request
	// redirect path lock-free.
	Holders func(title string) ([]topology.NodeID, error)
	// Load returns a node's committed-load fraction (broker committed Mbps
	// over capacity, 0 when unknown). Nil scores every node 0.
	Load func(topology.NodeID) float64
	// Lookup resolves the redirect target to the dialable address the client
	// is handed. Required.
	Lookup func(topology.NodeID) (string, error)
	// MaxHops bounds the redirect chain; zero uses DefaultMaxHops.
	MaxHops int
	// FrontDoor enables redirecting for titles this node does not hold even
	// when healthy. When false the director only redirects while draining —
	// the compatibility mode where non-holders proxy remote clusters exactly
	// as before.
	FrontDoor bool
	// Resident reports whether a title is locally resident. Nil treats
	// catalog holdings as authoritative.
	Resident func(title string) bool
}

// Director decides, per watch request, whether this node should serve or
// hand the client a typed watch.redirect to a better-placed peer. It is the
// stateless front door: the decision reads only the current membership view,
// catalog placement and broker load — no per-client state —
// so any node can answer any watch request.
type Director struct {
	cfg      DirectorConfig
	draining atomic.Bool
}

// NewDirector validates the configuration.
func NewDirector(cfg DirectorConfig) (*Director, error) {
	if cfg.Self == "" {
		return nil, errors.New("membership: director needs a self node")
	}
	if cfg.Holders == nil {
		return nil, errors.New("membership: director needs a holders source")
	}
	if cfg.Lookup == nil {
		return nil, errors.New("membership: director needs a lookup")
	}
	if cfg.MaxHops < 0 {
		return nil, errors.New("membership: negative max hops")
	}
	if cfg.MaxHops == 0 {
		cfg.MaxHops = DefaultMaxHops
	}
	return &Director{cfg: cfg}, nil
}

// SetDraining flips the drain flag: while set, every new watch is redirected
// (in-flight sessions finish normally), which is what makes a planned drain
// lose zero watches.
func (d *Director) SetDraining(v bool) { d.draining.Store(v) }

// Draining reports the drain flag.
func (d *Director) Draining() bool { return d.draining.Load() }

// MaxHops returns the configured redirect-chain bound.
func (d *Director) MaxHops() int { return d.cfg.MaxHops }

// Route implements the server's redirect hook: given a watch request for
// title that has already been redirected hops times, it returns the target
// node and address to bounce the client to, or ok=false when this node
// should serve the request itself.
//
// The decision: past the hop cap, always serve. Otherwise collect the
// title's holders that are Alive in the membership view (excluding self),
// rank them by broker-load fraction (ties break on node ID for determinism),
// and redirect to the best one when this node is draining, or when the front
// door is enabled and the title is not resident here. A draining node with
// no live replica to point at serves the request itself — availability beats
// drain hygiene.
func (d *Director) Route(title string, hops int) (topology.NodeID, string, bool) {
	if hops >= d.cfg.MaxHops {
		return "", "", false
	}
	draining := d.draining.Load()
	if !draining && !d.cfg.FrontDoor {
		return "", "", false
	}
	if !draining && d.isResident(title) {
		return "", "", false
	}
	holders, err := d.cfg.Holders(title)
	if err != nil || len(holders) == 0 {
		return "", "", false
	}
	alive := d.aliveSet()
	type candidate struct {
		node  topology.NodeID
		score float64
	}
	var cands []candidate
	for _, h := range holders {
		if h == d.cfg.Self {
			continue
		}
		if alive != nil && !alive[h] {
			continue
		}
		score := 0.0
		if d.cfg.Load != nil {
			score = d.cfg.Load(h)
		}
		cands = append(cands, candidate{node: h, score: score})
	}
	if len(cands) == 0 {
		return "", "", false
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score < cands[j].score
		}
		return cands[i].node < cands[j].node
	})
	for _, c := range cands {
		addr, err := d.cfg.Lookup(c.node)
		if err != nil || addr == "" {
			continue
		}
		return c.node, addr, true
	}
	return "", "", false
}

// isResident reports whether the title is served locally without a remote
// fetch: the cache's view when wired, else the catalog's.
func (d *Director) isResident(title string) bool {
	if d.cfg.Resident != nil {
		return d.cfg.Resident(title)
	}
	holders, err := d.cfg.Holders(title)
	if err != nil {
		return false
	}
	for _, h := range holders {
		if h == d.cfg.Self {
			return true
		}
	}
	return false
}

// aliveSet snapshots the membership view's Alive nodes; nil means no view is
// wired and every holder counts.
func (d *Director) aliveSet() map[topology.NodeID]bool {
	if d.cfg.Members == nil {
		return nil
	}
	out := make(map[topology.NodeID]bool)
	for _, m := range d.cfg.Members() {
		if m.State == Alive {
			out[m.Node] = true
		}
	}
	return out
}
