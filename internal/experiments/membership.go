package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"text/tabwriter"

	"dvod/internal/membership"
	"dvod/internal/metrics"
	"dvod/internal/topogen"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// --- Ext-19: WAN membership study --------------------------------------------

// Ext-19 measures the membership layer at fleet scale under WAN faults. Each
// cell boots an n-node fleet of trackers on a random bounded-degree overlay
// (internal/topogen), seeds each tracker with its overlay neighbours, and
// drives the fleet round by round through the same API the gossiper uses
// (Beat/PlanContactsWithin/SyncFor/HandleSync/MergeReply/StartProbes/
// ReportIndirect), with a seeded fault plan dropping request and reply legs
// independently: a base loss rate on every link, a worse rate on a slow-node
// fraction. The overlay matters: gossip rotates over a node's graph
// neighbours (the WAN deployment shape), so repeat contacts dominate and the
// delta protocol's ack floor does real work; indirect probes still recruit
// helpers fleet-wide. The cell runs three phases — converge (every tracker
// learns all n members), steady (fixed rounds, measuring bytes per round on
// the wire encoding), kill (two members die; measure rounds until every
// survivor marks both Failed). Bytes are what the binary member-sync frames
// would carry, so the full-vs-delta comparison is the headline: delta rows
// shrink steady-state traffic by well over the 5x gate while converging and
// detecting in comparable rounds, with zero false Failed verdicts under 10%
// loss.
//
// The simulation is deterministic: node order is fixed, the fault plan comes
// from a per-cell seeded generator consumed in a fixed order, and every
// tracker output the loop consumes is sorted. Equal config and seed reproduce
// every row bit for bit.

// MembershipStudyConfig parameterizes Ext-19.
type MembershipStudyConfig struct {
	// Sizes lists the fleet sizes to run; each size runs once per mode.
	Sizes []int
	// Modes selects the sync strategies to compare: "full" disables delta
	// rows (every exchange ships the whole view), "delta" is the shipping
	// protocol. Empty runs both.
	Modes []string
	// Seed feeds the per-cell overlay and fault generators.
	Seed int64
	// Degree is the overlay graph's mean degree — each node gossips only
	// with its graph neighbours, the WAN deployment shape.
	Degree float64
	// Fanout is the per-round gossip fanout handed to the contact planner.
	Fanout int
	// SuspectRounds / FailRounds / ProbeFanout / FullSyncEvery mirror the
	// tracker knobs; Ext-19 runs WAN-stretched windows rather than the LAN
	// defaults so 10% loss does not fabricate verdicts.
	SuspectRounds int
	FailRounds    int
	ProbeFanout   int
	FullSyncEvery int
	// LossPct drops each request or reply leg independently.
	LossPct float64
	// SlowFrac of the fleet are slow nodes whose legs drop at SlowLossPct.
	SlowFrac    float64
	SlowLossPct float64
	// Kills is how many members die in the kill phase.
	Kills int
	// SteadyRounds is the byte-measurement window between convergence and
	// the kills.
	SteadyRounds int
	// MaxRounds caps the converge and detect phases so a broken protocol
	// fails the cell instead of hanging it.
	MaxRounds int
}

// DefaultMembershipStudyConfig returns the committed Ext-19 shape.
func DefaultMembershipStudyConfig() MembershipStudyConfig {
	return MembershipStudyConfig{
		Sizes:         []int{100, 512, 1000},
		Modes:         []string{"full", "delta"},
		Seed:          7,
		Degree:        6,
		Fanout:        2,
		SuspectRounds: 4,
		FailRounds:    12,
		ProbeFanout:   3,
		FullSyncEvery: 32,
		LossPct:       0.10,
		SlowFrac:      0.05,
		SlowLossPct:   0.50,
		Kills:         2,
		SteadyRounds:  8,
		MaxRounds:     400,
	}
}

// MembershipRow is one (size, mode) cell of Ext-19.
type MembershipRow struct {
	Nodes int    `json:"nodes"`
	Mode  string `json:"mode"`
	// ConvergeRounds is how many rounds until every tracker knew all Nodes
	// members; Converged is false if MaxRounds hit first.
	ConvergeRounds int  `json:"converge_rounds"`
	Converged      bool `json:"converged"`
	// SteadyBytesPerRound is the fleet-wide wire bytes per round during the
	// steady window (request plus reply legs, frame header included).
	SteadyBytesPerRound int64 `json:"steady_bytes_per_round"`
	// DetectRounds is how many rounds after the kills until every survivor
	// marked all killed members Failed; Detected is false on MaxRounds.
	DetectRounds int  `json:"detect_rounds"`
	Detected     bool `json:"detected"`
	// FalseSuspects / FalseFailed count verdict events against members that
	// were actually alive, summed over the whole fleet and run.
	FalseSuspects int `json:"false_suspects"`
	FalseFailed   int `json:"false_failed"`
	// IndirectProbes / IndirectRescues / FailedDialsSaved aggregate the
	// tracker counters across the fleet.
	IndirectProbes   int64 `json:"indirect_probes"`
	IndirectRescues  int64 `json:"indirect_rescues"`
	FailedDialsSaved int64 `json:"failed_dials_saved"`
	// BytesTotal is the whole-run wire volume.
	BytesTotal int64 `json:"bytes_total"`
}

// membershipCell is the per-cell simulation state.
type membershipCell struct {
	cfg      MembershipStudyConfig
	rng      *rand.Rand
	ids      []topology.NodeID
	overlay  map[topology.NodeID]map[topology.NodeID]bool
	trackers map[topology.NodeID]*membership.Tracker
	slow     map[topology.NodeID]bool
	killed   map[topology.NodeID]bool
	reg      *metrics.Registry
	row      *MembershipRow
	bytes    int64 // accumulates into the current phase's window
	total    int64 // whole-run wire volume
}

// lossOf returns the drop probability for one leg between a and b: the worse
// endpoint wins, so slow nodes hurt in both directions.
func (c *membershipCell) lossOf(a, b topology.NodeID) float64 {
	if c.slow[a] || c.slow[b] {
		return c.cfg.SlowLossPct
	}
	return c.cfg.LossPct
}

// memberSyncWireSize computes the exact frame size AppendMemberSyncPayload
// plus the frame header would produce, without materialising the bytes — the
// 1000-node full-sync cells would otherwise spend the whole study memcpying.
// TestMembershipWireSizeMatchesCodec pins this arithmetic to the codec.
func memberSyncWireSize(p transport.MemberSyncPayload) int64 {
	n := int64(transport.FrameHeaderLen) + 34 + int64(len(p.From))
	for _, e := range p.Members {
		n += 19 + int64(len(e.Node))
	}
	return n
}

// charge accounts one payload's wire size against the cell.
func (c *membershipCell) charge(p transport.MemberSyncPayload) {
	n := memberSyncWireSize(p)
	c.bytes += n
	c.total += n
}

// round drives every live tracker through one gossip round: beat, planned
// exchanges with per-leg loss, then indirect probes for quiet members. Reply
// legs drop independently of request legs, so a responder can merge a view
// whose initiator still records the contact as failed — the asymmetry real
// lossy links produce.
func (c *membershipCell) round() {
	for _, id := range c.ids {
		if c.killed[id] {
			continue
		}
		tr := c.trackers[id]
		hood := c.overlay[id]
		tr.Beat()
		for _, peer := range tr.PlanContactsWithin(c.cfg.Fanout, func(n topology.NodeID) bool { return hood[n] }) {
			if c.killed[peer] || c.rng.Float64() < c.lossOf(id, peer) {
				tr.ReportContactFailed(peer)
				continue
			}
			req := tr.SyncFor(peer)
			c.charge(req)
			// A refused request fails the contact like a lost reply; the
			// loss draw comes first so the rng sequence is unchanged.
			reply, err := c.trackers[peer].HandleSync(req)
			if c.rng.Float64() < c.lossOf(peer, id) || err != nil {
				tr.ReportContactFailed(peer)
				continue
			}
			c.charge(reply)
			tr.MergeReply(peer, reply)
		}
		for _, p := range tr.StartProbes() {
			ok := false
			for _, h := range p.Helpers {
				if c.killed[h] || c.rng.Float64() < c.lossOf(id, h) {
					continue
				}
				if c.killed[p.Target] || c.rng.Float64() < c.lossOf(h, p.Target) {
					continue
				}
				ok = true
				break
			}
			tr.ReportIndirect(p.Target, ok)
		}
	}
}

// runMembershipCell runs one (size, mode) cell to a row.
func runMembershipCell(cfg MembershipStudyConfig, size int, mode string) (MembershipRow, error) {
	if size < 8 {
		return MembershipRow{}, fmt.Errorf("membership study: size %d too small", size)
	}
	row := MembershipRow{Nodes: size, Mode: mode}
	cell := &membershipCell{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed + int64(size)*31)),
		ids:      topogen.Nodes(size),
		overlay:  make(map[topology.NodeID]map[topology.NodeID]bool, size),
		trackers: make(map[topology.NodeID]*membership.Tracker, size),
		slow:     make(map[topology.NodeID]bool),
		killed:   make(map[topology.NodeID]bool),
		reg:      metrics.NewRegistry(),
		row:      &row,
	}

	// The gossip overlay: a connected random graph at the configured mean
	// degree, from the repo's own generator. Gossip rotates only over graph
	// neighbours, so per-pair repeat contacts dominate — the regime the
	// delta protocol's ack floor is built for.
	graph, err := topogen.Random(size, cfg.Degree, cell.rng)
	if err != nil {
		return row, fmt.Errorf("membership study: overlay: %w", err)
	}
	for _, id := range cell.ids {
		hood := make(map[topology.NodeID]bool)
		for _, nb := range graph.Neighbors(id) {
			hood[nb] = true
		}
		cell.overlay[id] = hood
	}

	// Fault cast: a slow fraction plus the kill victims, drawn from one
	// permutation so the sets never overlap and stay seed-stable.
	perm := cell.rng.Perm(size)
	slowCount := int(float64(size) * cfg.SlowFrac)
	if slowCount+cfg.Kills > size-2 {
		return row, fmt.Errorf("membership study: size %d cannot host %d slow + %d killed", size, slowCount, cfg.Kills)
	}
	for _, i := range perm[:slowCount] {
		cell.slow[cell.ids[i]] = true
	}
	victims := make([]topology.NodeID, 0, cfg.Kills)
	for _, i := range perm[slowCount : slowCount+cfg.Kills] {
		victims = append(victims, cell.ids[i])
	}

	// Verdicts against members that are in fact alive are false; the killed
	// set is consulted at event time, so kill-phase verdicts stay honest.
	onEvent := func(ev membership.Event) {
		switch ev.Kind {
		case membership.EventSuspect:
			if !cell.killed[ev.Node] {
				row.FalseSuspects++
			}
		case membership.EventFail:
			if !cell.killed[ev.Node] {
				row.FalseFailed++
			}
		}
	}

	// Each tracker starts knowing only its overlay neighbours, so
	// convergence is a real dissemination problem rather than a full-mesh
	// giveaway.
	for _, id := range cell.ids {
		seeds := graph.Neighbors(id)
		tr, err := membership.New(membership.Config{
			Self:          id,
			Seeds:         seeds,
			SuspectRounds: cfg.SuspectRounds,
			FailRounds:    cfg.FailRounds,
			ProbeFanout:   cfg.ProbeFanout,
			FullSyncEvery: cfg.FullSyncEvery,
			DisableDelta:  mode == "full",
			Epoch:         1,
			OnEvent:       onEvent,
			Metrics:       cell.reg,
		})
		if err != nil {
			return row, fmt.Errorf("membership study: %w", err)
		}
		cell.trackers[id] = tr
	}

	// Phase 1: converge.
	converged := func() bool {
		for _, id := range cell.ids {
			if cell.trackers[id].Size() != size {
				return false
			}
		}
		return true
	}
	for r := 0; r < cfg.MaxRounds; r++ {
		if converged() {
			row.Converged = true
			break
		}
		cell.round()
		row.ConvergeRounds++
	}
	row.Converged = row.Converged || converged()

	// Phase 2: steady window.
	cell.bytes = 0
	for r := 0; r < cfg.SteadyRounds; r++ {
		cell.round()
	}
	if cfg.SteadyRounds > 0 {
		row.SteadyBytesPerRound = cell.bytes / int64(cfg.SteadyRounds)
	}

	// Phase 3: kill and detect.
	for _, v := range victims {
		cell.killed[v] = true
	}
	detected := func() bool {
		for _, id := range cell.ids {
			if cell.killed[id] {
				continue
			}
			for _, v := range victims {
				m, ok := cell.trackers[id].Member(v)
				if !ok || m.State < membership.Failed {
					return false
				}
			}
		}
		return true
	}
	for r := 0; r < cfg.MaxRounds; r++ {
		if detected() {
			row.Detected = true
			break
		}
		cell.round()
		row.DetectRounds++
	}
	row.Detected = row.Detected || detected()

	row.IndirectProbes = cell.reg.Counter("membership.indirect_probes").Value()
	row.IndirectRescues = cell.reg.Counter("membership.indirect_rescues").Value()
	row.FailedDialsSaved = cell.reg.Counter("membership.failed_dials_saved").Value()
	row.BytesTotal = cell.total
	return row, nil
}

// MembershipStudy runs every (size, mode) cell and returns the rows in size
// order, full before delta.
func MembershipStudy(cfg MembershipStudyConfig) ([]MembershipRow, error) {
	if len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("membership study: need at least one size")
	}
	modes := cfg.Modes
	if len(modes) == 0 {
		modes = []string{"full", "delta"}
	}
	for _, m := range modes {
		if m != "full" && m != "delta" {
			return nil, fmt.Errorf("membership study: unknown mode %q", m)
		}
	}
	rows := make([]MembershipRow, 0, len(cfg.Sizes)*len(modes))
	for _, size := range cfg.Sizes {
		for _, mode := range modes {
			row, err := runMembershipCell(cfg, size, mode)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// MembershipStructural checks the structural Ext-19 invariants and the
// current rows against a baseline. The checks are structural — convergence
// and detection finished, delta cut steady bytes by at least 5x where both
// modes ran, zero false Failed verdicts anywhere — so the gate is stable on
// loaded CI machines; the baseline comparison allows 1.5x drift on the byte
// rate before failing.
func MembershipStructural(current, baseline []MembershipRow) []string {
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	if len(current) == 0 {
		fail("membership study produced no rows")
		return problems
	}
	byCell := func(rows []MembershipRow) map[string]MembershipRow {
		m := make(map[string]MembershipRow, len(rows))
		for _, r := range rows {
			m[fmt.Sprintf("%d/%s", r.Nodes, r.Mode)] = r
		}
		return m
	}
	cur := byCell(current)
	for _, r := range current {
		if !r.Converged {
			fail("cell %d/%s never converged (%d rounds)", r.Nodes, r.Mode, r.ConvergeRounds)
		}
		if !r.Detected {
			fail("cell %d/%s never detected the kills (%d rounds)", r.Nodes, r.Mode, r.DetectRounds)
		}
		if r.FalseFailed != 0 {
			fail("cell %d/%s produced %d false Failed verdicts", r.Nodes, r.Mode, r.FalseFailed)
		}
		if r.Mode != "delta" {
			continue
		}
		full, ok := cur[fmt.Sprintf("%d/full", r.Nodes)]
		if !ok {
			continue
		}
		if r.SteadyBytesPerRound*5 > full.SteadyBytesPerRound {
			fail("cell %d: delta steady bytes %d not 5x under full %d",
				r.Nodes, r.SteadyBytesPerRound, full.SteadyBytesPerRound)
		}
		if full.Converged && r.ConvergeRounds > 2*full.ConvergeRounds {
			fail("cell %d: delta converged in %d rounds, over 2x full's %d",
				r.Nodes, r.ConvergeRounds, full.ConvergeRounds)
		}
	}
	if len(baseline) == 0 {
		fail("membership baseline holds no rows to compare")
		return problems
	}
	base := byCell(baseline)
	for key, b := range base {
		c, ok := cur[key]
		if !ok {
			fail("baseline cell %s missing from current run", key)
			continue
		}
		if b.SteadyBytesPerRound > 0 && c.SteadyBytesPerRound > b.SteadyBytesPerRound+b.SteadyBytesPerRound/2 {
			fail("cell %s steady bytes %d regressed past 1.5x baseline %d",
				key, c.SteadyBytesPerRound, b.SteadyBytesPerRound)
		}
		if c.FalseFailed > b.FalseFailed {
			fail("cell %s false Failed %d worse than baseline %d", key, c.FalseFailed, b.FalseFailed)
		}
	}
	return problems
}

// FormatMembershipStudy renders Ext-19 rows as an aligned table.
func FormatMembershipStudy(rows []MembershipRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Nodes\tMode\tConverge\tDetect\tBytes/round\tFalseSuspect\tFalseFailed\tProbes\tRescues\tDialsSaved")
	for _, r := range rows {
		conv := fmt.Sprintf("%d", r.ConvergeRounds)
		if !r.Converged {
			conv += "*"
		}
		det := fmt.Sprintf("%d", r.DetectRounds)
		if !r.Detected {
			det += "*"
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Nodes, r.Mode, conv, det, r.SteadyBytesPerRound,
			r.FalseSuspects, r.FalseFailed,
			r.IndirectProbes, r.IndirectRescues, r.FailedDialsSaved)
	}
	w.Flush()
	return b.String()
}
