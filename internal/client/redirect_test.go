package client_test

import (
	"errors"
	"net"
	"sync/atomic"
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

// routeFunc adapts a closure to the server's Director hook.
type routeFunc func(title string, hops int) (topology.NodeID, string, bool)

func (f routeFunc) Route(title string, hops int) (topology.NodeID, string, bool) {
	return f(title, hops)
}

// redirectCluster brings up Patra and Xanthi over real sockets, Xanthi
// holding "feature". Each server's Director is settable after start, so the
// tests script the redirect topology per scenario.
func redirectCluster(t *testing.T) (*transport.AddrBook, map[topology.NodeID]*routeHolder) {
	t.Helper()
	g, err := grnet.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	d := db.New(g)
	book := transport.NewAddrBook()
	directors := map[topology.NodeID]*routeHolder{
		grnet.Patra:  {},
		grnet.Xanthi: {},
	}
	for _, node := range []topology.NodeID{grnet.Patra, grnet.Xanthi} {
		arr, err := disk.NewUniformArray(string(node), 2, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		dma, err := cache.NewDMA(cache.Config{Array: arr, ClusterBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		planner, err := core.NewPlanner(d, core.VRA{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{
			Node: node, DB: d, Planner: planner, Array: arr, Cache: dma,
			ClusterBytes: 1024, Book: book, Director: directors[node],
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		if node == grnet.Xanthi {
			title := media.Title{Name: "feature", SizeBytes: 5*1024 + 37, BitrateMbps: 1.5}
			if err := d.Catalog().AddTitle(title); err != nil {
				t.Fatal(err)
			}
			if err := srv.Preload(title); err != nil {
				t.Fatal(err)
			}
		}
	}
	return book, directors
}

// routeHolder is a Director whose decision function can be swapped mid-test,
// while the server's handler goroutines read it.
type routeHolder struct{ fn atomic.Pointer[routeFunc] }

func (h *routeHolder) set(fn routeFunc) { h.fn.Store(&fn) }

func (h *routeHolder) Route(title string, hops int) (topology.NodeID, string, bool) {
	fn := h.fn.Load()
	if fn == nil {
		return "", "", false
	}
	return (*fn)(title, hops)
}

func redirectTo(book *transport.AddrBook, target topology.NodeID) routeFunc {
	return func(string, int) (topology.NodeID, string, bool) {
		addr, err := book.Lookup(target)
		if err != nil {
			return "", "", false
		}
		return target, addr, true
	}
}

// TestClientFollowsRedirectTransparently pins the happy path: the home
// bounces the watch to the holder, the client follows in one hop, and the
// stats record the bounce.
func TestClientFollowsRedirectTransparently(t *testing.T) {
	book, directors := redirectCluster(t)
	directors[grnet.Patra].set(redirectTo(book, grnet.Xanthi))

	p, err := client.NewPlayer(grnet.Patra, book)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch("feature")
	if err != nil {
		t.Fatalf("redirected watch failed: %v", err)
	}
	if !stats.Verified || stats.BytesReceived != 5*1024+37 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Redirects != 1 || len(stats.RedirectPath) != 1 || stats.RedirectPath[0] != grnet.Xanthi {
		t.Fatalf("redirect accounting = %d via %v, want 1 via [Xanthi]", stats.Redirects, stats.RedirectPath)
	}
}

// TestClientRejectsRedirectLoop pins loop detection: two front doors
// pointing at each other surface ErrRedirectLoop instead of orbiting (the
// home node is in the visited set from the start).
func TestClientRejectsRedirectLoop(t *testing.T) {
	book, directors := redirectCluster(t)
	directors[grnet.Patra].set(redirectTo(book, grnet.Xanthi))
	directors[grnet.Xanthi].set(redirectTo(book, grnet.Patra))

	p, err := client.NewPlayer(grnet.Patra, book)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Watch("feature")
	if !errors.Is(err, client.ErrRedirectLoop) {
		t.Fatalf("err = %v, want ErrRedirectLoop", err)
	}
	var rd *client.RedirectError
	if !errors.As(err, &rd) || rd.Target != grnet.Patra {
		t.Fatalf("err = %v, want *RedirectError targeting Patra", err)
	}
}

// TestClientHopCountCap pins the redirect limit: a chain longer than the
// player's budget fails typed, and a negative limit refuses the very first
// bounce.
func TestClientHopCountCap(t *testing.T) {
	book, directors := redirectCluster(t)
	directors[grnet.Patra].set(redirectTo(book, grnet.Xanthi))
	// Xanthi forwards to a third node that is never dialed: the limit check
	// fires before the dial.
	directors[grnet.Xanthi].set(func(string, int) (topology.NodeID, string, bool) {
		return grnet.Athens, "127.0.0.1:1", true
	})

	p, err := client.NewPlayer(grnet.Patra, book, client.WithRedirectLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Watch("feature")
	if !errors.Is(err, client.ErrTooManyRedirects) {
		t.Fatalf("err = %v, want ErrTooManyRedirects", err)
	}
	var rd *client.RedirectError
	if !errors.As(err, &rd) || rd.Target != grnet.Athens {
		t.Fatalf("err = %v, want *RedirectError targeting Athens", err)
	}

	refuser, err := client.NewPlayer(grnet.Patra, book, client.WithRedirectLimit(-1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refuser.Watch("feature"); !errors.Is(err, client.ErrTooManyRedirects) {
		t.Fatalf("negative limit err = %v, want ErrTooManyRedirects on first bounce", err)
	}
}

// TestClientRedirectRacingNodeDeath pins the race: the target dies between
// the redirect decision and the client's dial. The client gets a prompt
// typed *RedirectError wrapping the dial failure — never a hang.
func TestClientRedirectRacingNodeDeath(t *testing.T) {
	book, directors := redirectCluster(t)
	// A listener that is already gone: its address is valid but refuses.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	directors[grnet.Patra].set(func(string, int) (topology.NodeID, string, bool) {
		return grnet.Heraklio, deadAddr, true
	})

	p, err := client.NewPlayer(grnet.Patra, book)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Watch("feature")
		done <- err
	}()
	select {
	case err := <-done:
		var rd *client.RedirectError
		if !errors.As(err, &rd) {
			t.Fatalf("err = %v, want *RedirectError", err)
		}
		if rd.Target != grnet.Heraklio || rd.Err == nil {
			t.Fatalf("redirect error = %+v, want Heraklio with a wrapped dial failure", rd)
		}
		if errors.Is(err, client.ErrRedirectLoop) || errors.Is(err, client.ErrTooManyRedirects) {
			t.Fatalf("dial failure misclassified: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch hung following a redirect to a dead node")
	}
}
