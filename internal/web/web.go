// Package web implements the paper's interface modules (Figure 1) over
// HTTP: a full-access module through which users browse and search the
// catalog and place video requests (each request runs the VRA and returns
// the chosen server and route), and a limited-access module through which
// administrators inspect and update the network/configuration records in the
// database — exactly the split the paper draws between the two sub-modules.
//
// The limited-access module requires a bearer token; the full-access module
// is open, mirroring the paper's access model.
package web

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dvod/internal/clock"
	"dvod/internal/core"
	"dvod/internal/db"
	"dvod/internal/metrics"
	"dvod/internal/routing"
	"dvod/internal/topology"
)

// Config assembles the web module.
type Config struct {
	// DB is the shared database module.
	DB *db.DB
	// Planner runs the routing policy for /request: a *core.Planner, or a
	// service that answers through the home node's own planner.
	Planner interface {
		Plan(home topology.NodeID, title string) (core.Decision, error)
	}
	// AdminToken guards the limited-access module. Empty disables it
	// entirely (requests return 403).
	AdminToken string
	// Clock stamps administrative updates; nil defaults to wall time.
	Clock clock.Clock
	// Metrics optionally supplies per-server metric snapshots for
	// GET /admin/metrics; nil returns an empty object.
	Metrics func() map[topology.NodeID]metrics.Snapshot
}

// Module is an http.Handler exposing both interface modules.
type Module struct {
	cfg Config
	mux *http.ServeMux
}

var _ http.Handler = (*Module)(nil)

// New validates the configuration and builds the handler.
func New(cfg Config) (*Module, error) {
	if cfg.DB == nil {
		return nil, errors.New("web: nil db")
	}
	if cfg.Planner == nil {
		return nil, errors.New("web: nil planner")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	m := &Module{cfg: cfg, mux: http.NewServeMux()}
	// Full-access module.
	m.mux.HandleFunc("GET /titles", m.handleTitles)
	m.mux.HandleFunc("GET /titles/search", m.handleSearch)
	m.mux.HandleFunc("GET /titles/{name}/holders", m.handleHolders)
	m.mux.HandleFunc("POST /request", m.handleRequest)
	// Prometheus exposition of every server's registry (scrape target).
	m.mux.HandleFunc("GET /metrics", m.handlePrometheus)
	// Limited-access module.
	m.mux.HandleFunc("GET /admin/servers", m.admin(m.handleServers))
	m.mux.HandleFunc("GET /admin/links", m.admin(m.handleLinks))
	m.mux.HandleFunc("PUT /admin/links/{id}", m.admin(m.handleUpdateLink))
	m.mux.HandleFunc("GET /admin/topology", m.admin(m.handleTopology))
	m.mux.HandleFunc("GET /admin/metrics", m.admin(m.handleMetrics))
	return m, nil
}

// ServeHTTP implements http.Handler.
func (m *Module) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mux.ServeHTTP(w, r)
}

// admin wraps a handler with bearer-token authentication.
func (m *Module) admin(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if m.cfg.AdminToken == "" {
			writeError(w, http.StatusForbidden, "limited-access module disabled")
			return
		}
		auth := r.Header.Get("Authorization")
		want := "Bearer " + m.cfg.AdminToken
		if auth != want {
			writeError(w, http.StatusUnauthorized, "missing or wrong admin token")
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// TitleJSON is one catalog row.
type TitleJSON struct {
	Name        string  `json:"name"`
	SizeBytes   int64   `json:"sizeBytes"`
	BitrateMbps float64 `json:"bitrateMbps"`
}

// handleTitles lists the catalog (full access).
func (m *Module) handleTitles(w http.ResponseWriter, r *http.Request) {
	all := m.cfg.DB.Catalog().Titles()
	out := make([]TitleJSON, 0, len(all))
	for _, t := range all {
		out = append(out, TitleJSON{Name: t.Name, SizeBytes: t.SizeBytes, BitrateMbps: t.BitrateMbps})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSearch searches the catalog by substring (full access).
func (m *Module) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	hits := m.cfg.DB.Catalog().Search(q)
	out := make([]TitleJSON, 0, len(hits))
	for _, t := range hits {
		out = append(out, TitleJSON{Name: t.Name, SizeBytes: t.SizeBytes, BitrateMbps: t.BitrateMbps})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHolders lists the servers holding a title (full access).
func (m *Module) handleHolders(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	holders, err := m.cfg.DB.Catalog().Holders(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, holders)
}

// RequestJSON is the body of POST /request: the user (identified by home
// server, the paper's by-IP resolution done upstream) asks for a title.
type RequestJSON struct {
	Home  topology.NodeID `json:"home"`
	Title string          `json:"title"`
}

// DecisionJSON is the VRA's answer.
type DecisionJSON struct {
	Server topology.NodeID   `json:"server"`
	Path   []topology.NodeID `json:"path"`
	Cost   float64           `json:"cost"`
	Local  bool              `json:"local"`
}

func decisionJSON(d core.Decision) DecisionJSON {
	return DecisionJSON{
		Server: d.Server,
		Path:   append([]topology.NodeID(nil), d.Path.Nodes...),
		Cost:   d.Cost,
		Local:  d.Local,
	}
}

// handleRequest runs the VRA for one request (full access) — the
// application the paper describes running "each time the user places a
// request".
func (m *Module) handleRequest(w http.ResponseWriter, r *http.Request) {
	var req RequestJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Home == "" || req.Title == "" {
		writeError(w, http.StatusBadRequest, "need home and title")
		return
	}
	dec, err := m.cfg.Planner.Plan(req.Home, req.Title)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, decisionJSON(dec))
	case errors.Is(err, core.ErrNoCandidates), errors.Is(err, core.ErrNoReachable):
		writeError(w, http.StatusConflict, err.Error())
	case errors.Is(err, routing.ErrUnknownNode), errors.Is(err, topology.ErrNodeUnknown):
		writeError(w, http.StatusBadRequest, err.Error())
	default:
		writeError(w, http.StatusNotFound, err.Error())
	}
}

// ServerJSON is one registered server (limited access).
type ServerJSON struct {
	Node         topology.NodeID `json:"node"`
	Description  string          `json:"description"`
	RegisteredAt time.Time       `json:"registeredAt"`
}

func (m *Module) handleServers(w http.ResponseWriter, r *http.Request) {
	entries := m.cfg.DB.Servers()
	out := make([]ServerJSON, 0, len(entries))
	for _, e := range entries {
		out = append(out, ServerJSON{Node: e.Node, Description: e.Description, RegisteredAt: e.RegisteredAt})
	}
	writeJSON(w, http.StatusOK, out)
}

// LinkJSON is one link's configuration and latest statistics (limited
// access).
type LinkJSON struct {
	ID           topology.LinkID `json:"id"`
	A            topology.NodeID `json:"a"`
	B            topology.NodeID `json:"b"`
	CapacityMbps float64         `json:"capacityMbps"`
	UsedMbps     float64         `json:"usedMbps"`
	Utilization  float64         `json:"utilization"`
	UpdatedAt    *time.Time      `json:"updatedAt,omitempty"`
}

func (m *Module) handleLinks(w http.ResponseWriter, r *http.Request) {
	g := m.cfg.DB.Graph()
	out := make([]LinkJSON, 0, g.NumLinks())
	for _, l := range g.Links() {
		row := LinkJSON{ID: l.ID, A: l.A, B: l.B, CapacityMbps: l.CapacityMbps}
		if s, err := m.cfg.DB.LinkStats(l.ID); err == nil {
			row.UsedMbps = s.UsedMbps
			row.Utilization = s.Utilization
			at := s.UpdatedAt
			row.UpdatedAt = &at
		}
		out = append(out, row)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleUpdateLink lets an administrator insert a link measurement manually
// (the paper: "Network information can be inserted by the administrators and
// local scripts").
func (m *Module) handleUpdateLink(w http.ResponseWriter, r *http.Request) {
	id := topology.LinkID(r.PathValue("id"))
	usedStr := r.URL.Query().Get("usedMbps")
	used, err := strconv.ParseFloat(usedStr, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad usedMbps: "+usedStr)
		return
	}
	if err := m.cfg.DB.UpsertLinkStats(id, used, m.cfg.Clock.Now()); err != nil {
		if errors.Is(err, topology.ErrLinkUnknown) {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// TopologyJSON describes the overlay (limited access).
type TopologyJSON struct {
	Nodes []topology.NodeID `json:"nodes"`
	Links []LinkJSON        `json:"links"`
}

func (m *Module) handleTopology(w http.ResponseWriter, r *http.Request) {
	g := m.cfg.DB.Graph()
	out := TopologyJSON{Nodes: g.Nodes()}
	for _, l := range g.Links() {
		out.Links = append(out.Links, LinkJSON{ID: l.ID, A: l.A, B: l.B, CapacityMbps: l.CapacityMbps})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics dumps every video server's metric snapshot (limited
// access).
func (m *Module) handleMetrics(w http.ResponseWriter, r *http.Request) {
	out := map[topology.NodeID]metrics.Snapshot{}
	if m.cfg.Metrics != nil {
		out = m.cfg.Metrics()
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePrometheus exposes the same per-server registries in the Prometheus
// text format, one labeled sample set per node — including the admission
// admitted/queued/degraded/rejected counters when brokers share the server
// registries. Scrape endpoints are conventionally unauthenticated, matching
// the full-access module.
func (m *Module) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	snaps := map[string]metrics.Snapshot{}
	if m.cfg.Metrics != nil {
		for node, snap := range m.cfg.Metrics() {
			snaps[string(node)] = snap
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = metrics.WritePrometheus(w, snaps)
}

// RouteDescription renders a decision path the way the paper writes routes.
func RouteDescription(d DecisionJSON) string {
	if d.Local {
		return fmt.Sprintf("serve locally at %s", d.Server)
	}
	parts := make([]string, len(d.Path))
	for i, n := range d.Path {
		parts[i] = string(n)
	}
	return fmt.Sprintf("download from %s via %s (cost %.4f)",
		d.Server, strings.Join(parts, ","), d.Cost)
}
