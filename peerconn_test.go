package dvod

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// watchAllFrom watches title at home and requires every cluster to have come
// from want.
func watchAllFrom(t *testing.T, svc *Service, home NodeID, title string, want NodeID) {
	t.Helper()
	p, err := svc.Player(home)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch(title)
	if err != nil {
		t.Fatalf("watch %s at %s: %v", title, home, err)
	}
	if !stats.Verified {
		t.Fatalf("watch %s at %s: not verified", title, home)
	}
	for i, src := range stats.Sources {
		if src != want {
			t.Fatalf("watch %s at %s: cluster %d source = %s, want %s", title, home, i, src, want)
		}
	}
}

// TestCloseDoesNotWaitOnPooledPeerConns leaves idle pooled peer connections
// open in both directions between two servers (each pulled a title from the
// other, so each parks handlers for the other's pool) and closes the service.
// The idle timeout those handlers would otherwise sit out is two minutes.
func TestCloseDoesNotWaitOnPooledPeerConns(t *testing.T) {
	const titleBytes = 8 * 4096
	svc, err := New(GRNETTopology(),
		WithClusterBytes(4096),
		WithDisks(2, 1<<20),
		// Room for exactly one title each.
		WithNodeDisks("U2", 1, titleBytes),
		WithNodeDisks("U4", 1, titleBytes),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	seedTenAM(t, svc)
	for name, holder := range map[string]NodeID{"at-u2": "U2", "at-u4": "U4"} {
		if err := svc.AddTitle(Title{Name: name, SizeBytes: titleBytes, BitrateMbps: 1.5}); err != nil {
			t.Fatal(err)
		}
		if err := svc.Preload(holder, name); err != nil {
			t.Fatal(err)
		}
		// Two local hits: the DMA will not evict the resident title for one
		// request of the other.
		watchAllFrom(t, svc, holder, name, holder)
		watchAllFrom(t, svc, holder, name, holder)
	}
	watchAllFrom(t, svc, "U2", "at-u4", "U4")
	watchAllFrom(t, svc, "U4", "at-u2", "U2")
	for _, node := range []NodeID{"U2", "U4"} {
		c := svc.Metrics()[node].Counters
		if c["server.peer_dials"] != 1 || c["server.peer_reuses"] != 7 {
			t.Fatalf("%s: %d dials, %d reuses, want 1 and 7", node, c["server.peer_dials"], c["server.peer_reuses"])
		}
	}

	// The two counters are scrapeable.
	h, err := svc.WebHandler("tok")
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(h)
	defer web.Close()
	resp, err := http.Get(web.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dvod_server_peer_dials_total", "dvod_server_peer_reuses_total"} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("GET /metrics lacks %s", name)
		}
	}

	closed := make(chan error, 1)
	go func() { closed <- svc.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second): // a hang guard, not a speed claim
		t.Fatal("Close is waiting on idle pooled peer connections")
	}
}

// TestStopServerWithPooledPeerConns kills the preferred replica while the
// home pools a connection to it, with no failure detector running: the
// planner keeps choosing the dead server, and every session must get past it
// — corpse discarded, redial refused, next replica — within the cluster.
func TestStopServerWithPooledPeerConns(t *testing.T) {
	svc, err := New(GRNETTopology(),
		WithClusterBytes(4096),
		WithDisks(2, 1<<20),
		WithNodeDisks("U2", 1, 1024), // home cannot cache
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	seedTenAM(t, svc)
	title := Title{Name: "pooled-failover", SizeBytes: 20_000, BitrateMbps: 1.5}
	if err := svc.AddTitle(title); err != nil {
		t.Fatal(err)
	}
	for _, h := range []NodeID{"U4", "U5"} {
		if err := svc.Preload(h, title.Name); err != nil {
			t.Fatal(err)
		}
	}
	watchAllFrom(t, svc, "U2", title.Name, "U4")
	if err := svc.StopServer("U4"); err != nil {
		t.Fatal(err)
	}
	watchAllFrom(t, svc, "U2", title.Name, "U5")
	if c := svc.Metrics()["U2"].Counters; c["server.fetch_retries"] == 0 {
		t.Fatal("the dead replica cost no retry: the failure went unreported")
	}
}
