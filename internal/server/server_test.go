package server_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dvod/internal/cache"
	"dvod/internal/client"
	"dvod/internal/core"
	"dvod/internal/db"
	"dvod/internal/disk"
	"dvod/internal/grnet"
	"dvod/internal/media"
	"dvod/internal/server"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

var t0 = time.Date(2000, time.April, 10, 8, 0, 0, 0, time.UTC)

const clusterBytes = 1024

// liveCluster is a full six-node live deployment on localhost.
type liveCluster struct {
	db       *db.DB
	book     *transport.AddrBook
	counters *transport.Counters
	servers  map[topology.NodeID]*server.Server
}

// newCluster brings up all six GRNET video servers with per-node array
// capacities (nodes absent from capacities get the default 1 MiB). opts
// mutate every node's configuration before construction (e.g. to enable
// stream merging).
func newCluster(t *testing.T, capacities map[topology.NodeID]int64, opts ...func(*server.Config)) *liveCluster {
	t.Helper()
	g, err := grnet.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	d := db.New(g)
	for _, row := range grnet.Table2() {
		id := topology.MakeLinkID(row.A, row.B)
		if err := d.UpsertLinkStats(id, row.TrafficMbps[0], t0); err != nil {
			t.Fatal(err)
		}
	}
	book := transport.NewAddrBook()
	counters := transport.NewCounters()
	lc := &liveCluster{db: d, book: book, counters: counters,
		servers: make(map[topology.NodeID]*server.Server)}
	for _, node := range grnet.Nodes() {
		capBytes := int64(1 << 20)
		if c, ok := capacities[node]; ok {
			capBytes = c
		}
		arr, err := disk.NewUniformArray(string(node), 3, capBytes)
		if err != nil {
			t.Fatal(err)
		}
		dma, err := cache.NewDMA(cache.Config{Array: arr, ClusterBytes: clusterBytes})
		if err != nil {
			t.Fatal(err)
		}
		planner, err := core.NewPlanner(d, core.VRA{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := server.Config{
			Node:         node,
			DB:           d,
			Planner:      planner,
			Array:        arr,
			Cache:        dma,
			ClusterBytes: clusterBytes,
			Book:         book,
			Counters:     counters,
		}
		for _, o := range opts {
			o(&cfg)
		}
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		lc.servers[node] = srv
	}
	for _, srv := range lc.servers {
		if err := srv.WaitReady(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return lc
}

func (lc *liveCluster) addTitle(t *testing.T, title media.Title, holders ...topology.NodeID) {
	t.Helper()
	if err := lc.db.Catalog().AddTitle(title); err != nil {
		t.Fatal(err)
	}
	for _, h := range holders {
		if err := lc.servers[h].Preload(title); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	g, err := grnet.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	d := db.New(g)
	arr, err := disk.NewUniformArray("x", 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	dma, err := cache.NewDMA(cache.Config{Array: arr, ClusterBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	planner, err := core.NewPlanner(d, core.VRA{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	book := transport.NewAddrBook()
	good := server.Config{
		Node: grnet.Patra, DB: d, Planner: planner, Array: arr,
		Cache: dma, ClusterBytes: 64, Book: book,
	}
	if _, err := server.New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	breakers := []func(*server.Config){
		func(c *server.Config) { c.Node = "" },
		func(c *server.Config) { c.Node = "U99" },
		func(c *server.Config) { c.DB = nil },
		func(c *server.Config) { c.Planner = nil },
		func(c *server.Config) { c.Array = nil },
		func(c *server.Config) { c.Cache = nil },
		func(c *server.Config) { c.ClusterBytes = 0 },
		func(c *server.Config) { c.Book = nil },
	}
	for i, brk := range breakers {
		cfg := good
		brk(&cfg)
		if _, err := server.New(cfg); err == nil {
			t.Fatalf("breaker %d accepted", i)
		}
	}
}

func TestListTitles(t *testing.T) {
	lc := newCluster(t, nil)
	title := media.Title{Name: "zorba", SizeBytes: 4 * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Xanthi)
	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	titles, err := p.ListTitles()
	if err != nil {
		t.Fatal(err)
	}
	if len(titles) != 1 || titles[0].Name != "zorba" {
		t.Fatalf("titles = %v", titles)
	}
	if titles[0].Resident {
		t.Fatal("Patra reports the title resident, but only Xanthi holds it")
	}
	// The holder's own view marks it resident.
	px, err := client.NewPlayer(grnet.Xanthi, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	titles, err = px.ListTitles()
	if err != nil {
		t.Fatal(err)
	}
	if !titles[0].Resident {
		t.Fatal("Xanthi does not report its preloaded title")
	}
}

func TestWatchRemoteFetchVerified(t *testing.T) {
	// Patra's array is too small to admit the title, so every cluster is
	// fetched from the VRA-chosen peer (Thessaloniki via Ioannina at 8am
	// per the corrected Experiment A).
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes})
	title := media.Title{Name: "zorba", SizeBytes: 4*clusterBytes + 100, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Thessaloniki, grnet.Xanthi)

	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch("zorba")
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if !stats.Verified {
		t.Fatal("content verification failed")
	}
	if stats.BytesReceived != title.SizeBytes {
		t.Fatalf("received %d bytes, want %d", stats.BytesReceived, title.SizeBytes)
	}
	if stats.NumClusters != 5 || len(stats.Sources) != 5 {
		t.Fatalf("clusters = %d, sources = %v", stats.NumClusters, stats.Sources)
	}
	for i, src := range stats.Sources {
		if src != grnet.Thessaloniki {
			t.Fatalf("cluster %d source = %s, want Thessaloniki", i, src)
		}
	}
	if stats.Switches != 0 {
		t.Fatalf("switches = %d under static conditions", stats.Switches)
	}
	// Delivered bytes were charged against the chosen route's links.
	for _, id := range []topology.LinkID{
		topology.MakeLinkID(grnet.Patra, grnet.Ioannina),
		topology.MakeLinkID(grnet.Ioannina, grnet.Thessaloniki),
	} {
		oct, err := lc.counters.LinkOctets(id)
		if err != nil {
			t.Fatal(err)
		}
		if oct != uint64(title.SizeBytes) {
			t.Fatalf("link %s charged %d octets, want %d", id, oct, title.SizeBytes)
		}
	}
	// The untouched direct Athens route carries nothing.
	oct, err := lc.counters.LinkOctets(topology.MakeLinkID(grnet.Patra, grnet.Athens))
	if err != nil {
		t.Fatal(err)
	}
	if oct != 0 {
		t.Fatalf("Patra-Athens charged %d octets, want 0", oct)
	}
}

func TestWatchAdmitsLocallyWhenFits(t *testing.T) {
	lc := newCluster(t, nil) // default 1 MiB per disk: plenty
	title := media.Title{Name: "zorba", SizeBytes: 3 * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Xanthi)

	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch("zorba")
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2 admits immediately when the disks can tolerate the video,
	// so even the first delivery is local.
	for i, src := range stats.Sources {
		if src != grnet.Patra {
			t.Fatalf("cluster %d source = %s, want local Patra", i, src)
		}
	}
	// The admission is visible in the shared catalog.
	holders, err := lc.db.Catalog().Holders("zorba")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range holders {
		if h == grnet.Patra {
			found = true
		}
	}
	if !found {
		t.Fatalf("holders = %v, want Patra included after DMA admission", holders)
	}
	// A second watch is a pure local hit.
	stats2, err := p.Watch("zorba")
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.Verified || stats2.BytesReceived != title.SizeBytes {
		t.Fatalf("second watch: %+v", stats2)
	}
	m := lc.servers[grnet.Patra].Metrics().Snapshot()
	if m.Counters["server.dma_hits"] != 1 {
		t.Fatalf("dma_hits = %d, want 1", m.Counters["server.dma_hits"])
	}
	if m.Counters["server.dma_admissions"] != 1 {
		t.Fatalf("dma_admissions = %d, want 1", m.Counters["server.dma_admissions"])
	}
}

func TestWatchUnknownTitle(t *testing.T) {
	lc := newCluster(t, nil)
	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Watch("ghost")
	if err == nil || !strings.Contains(err.Error(), "remote error") {
		t.Fatalf("Watch(ghost) error = %v", err)
	}
}

func TestWatchNoHolder(t *testing.T) {
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes})
	title := media.Title{Name: "orphan", SizeBytes: 4 * clusterBytes, BitrateMbps: 1.5}
	if err := lc.db.Catalog().AddTitle(title); err != nil {
		t.Fatal(err)
	}
	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Watch("orphan"); err == nil {
		t.Fatal("Watch with no holder succeeded")
	}
}

func TestClusterGetDirect(t *testing.T) {
	lc := newCluster(t, nil)
	title := media.Title{Name: "direct", SizeBytes: 2*clusterBytes + 7, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Heraklio)
	conn, err := transport.Dial(lc.servers[grnet.Heraklio].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, err := transport.Encode(transport.TypeClusterGet, transport.ClusterGetPayload{
		Title: "direct", Index: 2, ClusterBytes: clusterBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(req); err != nil {
		t.Fatal(err)
	}
	var payload transport.ClusterPayload
	_, body, err := conn.ReadMessageWithBodyPool(nil, func(m transport.Message) (int64, error) {
		if rerr := transport.AsError(m); rerr != nil {
			return 0, rerr
		}
		pl, err := transport.Decode[transport.ClusterPayload](m)
		if err != nil {
			return 0, err
		}
		payload = pl
		return pl.Length, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if payload.Length != 7 || payload.Offset != 2*clusterBytes || payload.Source != grnet.Heraklio {
		t.Fatalf("payload = %+v", payload)
	}
	if !media.Verify("direct", payload.Offset, body.Payload) {
		t.Fatal("cluster content mismatch")
	}
	// Requesting a non-resident title yields an error frame.
	req2, err := transport.Encode(transport.TypeClusterGet, transport.ClusterGetPayload{
		Title: "ghost", Index: 0, ClusterBytes: clusterBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(req2); err != nil {
		t.Fatal(err)
	}
	m, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if transport.AsError(m) == nil {
		t.Fatalf("expected error frame, got %s", m.Type)
	}

	// A peer asks with the binary cluster.get after its hello and gets a
	// binary cluster.ok, or an error frame for a title not held here.
	peer, err := transport.Dial(lc.servers[grnet.Heraklio].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := peer.RequireClusterFrames(); err != nil {
		t.Fatal(err)
	}
	for _, get := range []transport.ClusterGetPayload{
		{Title: "direct", Index: 1, ClusterBytes: clusterBytes},
		{Title: "ghost", Index: 0, ClusterBytes: clusterBytes},
	} {
		if err := peer.WriteClusterGetFrame(get); err != nil {
			t.Fatal(err)
		}
		payload, frame, err := peer.ReadClusterReply(nil, nil)
		if get.Title == "ghost" {
			if err == nil || errors.Is(err, transport.ErrBadFrame) {
				t.Fatalf("binary get of a title not held: err = %v, want the peer's error", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if payload.Offset != clusterBytes || payload.Length != clusterBytes ||
			!media.Verify("direct", payload.Offset, frame.Payload) {
			t.Fatalf("binary cluster.get payload = %+v or content mismatch", payload)
		}
		frame.Release()
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	lc := newCluster(t, nil)
	srv := lc.servers[grnet.Athens]
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err == nil {
		t.Fatal("Start after Close accepted")
	}
}

func TestUnknownMessageType(t *testing.T) {
	lc := newCluster(t, nil)
	conn, err := transport.Dial(lc.servers[grnet.Patra].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteMessage(transport.Message{Type: "bogus"}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if transport.AsError(m) == nil {
		t.Fatalf("expected error frame, got %s", m.Type)
	}
}

func TestNewPlayerValidation(t *testing.T) {
	if _, err := client.NewPlayer("", transport.NewAddrBook()); err == nil {
		t.Fatal("empty home accepted")
	}
	if _, err := client.NewPlayer("U1", nil); err == nil {
		t.Fatal("nil book accepted")
	}
	p, err := client.NewPlayer("U1", transport.NewAddrBook())
	if err != nil {
		t.Fatal(err)
	}
	if p.Home() != "U1" {
		t.Fatal("Home wrong")
	}
	if _, err := p.Watch("x"); err == nil {
		t.Fatal("Watch with unregistered home succeeded")
	}
	if _, err := p.ListTitles(); err == nil {
		t.Fatal("ListTitles with unregistered home succeeded")
	}
}
