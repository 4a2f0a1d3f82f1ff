package client_test

import (
	"net"

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

// miniCluster brings up two live servers (Patra as home with a tiny array,
// Xanthi as the replica holder) so every client path — list, watch, seek,
// holders, parallel — runs over real sockets from this package's tests. opts
// mutate both servers' configurations before construction.
func miniCluster(t *testing.T, opts ...func(*server.Config)) (*transport.AddrBook, *db.DB) {
	t.Helper()
	g, err := grnet.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	d := db.New(g)
	t0 := time.Date(2000, time.April, 10, 8, 0, 0, 0, time.UTC)
	for _, row := range grnet.Table2() {
		id := topology.MakeLinkID(row.A, row.B)
		if err := d.UpsertLinkStats(id, row.TrafficMbps[0], t0); err != nil {
			t.Fatal(err)
		}
	}
	book := transport.NewAddrBook()
	shapes := map[topology.NodeID]int64{
		grnet.Patra:  512,     // cannot cache anything real
		grnet.Xanthi: 1 << 20, // replica holder
	}
	for node, capBytes := range shapes {
		arr, err := disk.NewUniformArray(string(node), 2, capBytes)
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
		cfg := server.Config{
			Node: node, DB: d, Planner: planner, Array: arr, Cache: dma,
			ClusterBytes: 1024, Book: book,
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
	return book, d
}

func TestClientEndToEnd(t *testing.T) {
	book, _ := miniCluster(t)
	p, err := client.NewPlayer(grnet.Patra, book)
	if err != nil {
		t.Fatal(err)
	}
	// List.
	titles, err := p.ListTitles()
	if err != nil {
		t.Fatal(err)
	}
	if len(titles) != 1 || titles[0].Name != "feature" || titles[0].Resident {
		t.Fatalf("titles = %+v", titles)
	}
	// Watch (remote fetch through the home server).
	stats, err := p.Watch("feature")
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Verified || stats.BytesReceived != 5*1024+37 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.NumClusters != 6 || stats.StartupDelay < 0 {
		t.Fatalf("stats = %+v", stats)
	}
	for _, src := range stats.Sources {
		if src != grnet.Xanthi {
			t.Fatalf("source = %s", src)
		}
	}
	// Seek.
	tail, err := p.WatchFrom("feature", 5)
	if err != nil {
		t.Fatal(err)
	}
	if tail.BytesReceived != 37 {
		t.Fatalf("tail bytes = %d", tail.BytesReceived)
	}
	// Holders (single holder).
	info, err := p.Holders("feature")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Holders) != 1 || info.Holders[0] != grnet.Xanthi {
		t.Fatalf("holders = %v", info.Holders)
	}
}

func TestClientWithoutVerificationStillChecksLengths(t *testing.T) {
	book, _ := miniCluster(t)
	p, err := client.NewPlayer(grnet.Patra, book, client.WithoutVerification())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch("feature")
	if err != nil {
		t.Fatal(err)
	}
	if stats.BytesReceived != 5*1024+37 {
		t.Fatalf("bytes = %d", stats.BytesReceived)
	}
}

func TestClientErrors(t *testing.T) {
	book, _ := miniCluster(t)
	p, err := client.NewPlayer(grnet.Patra, book)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Watch("ghost"); err == nil {
		t.Fatal("unknown title accepted")
	}
	if _, err := p.WatchFrom("feature", -1); err == nil {
		t.Fatal("negative seek accepted")
	}
	if _, err := p.WatchFrom("feature", 99); err == nil {
		t.Fatal("out-of-range seek accepted")
	}
	if _, err := p.Holders("ghost"); err == nil {
		t.Fatal("unknown holders accepted")
	}
}

// scriptedWatch serves one connection the way a home serves a watch of a
// numClusters-long title: hello, then watch.ok, then cluster(i) for each i
// as a binary cluster frame, then watch.done. cluster returns the meta and
// body sent in place of cluster i. The returned channel yields the serving
// goroutine's error once it is done.
func scriptedWatch(t *testing.T, title string, clusterBytes int64, numClusters int,
	cluster func(i int) (transport.ClusterPayload, []byte)) (addr string, served <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			nc, err := ln.Accept()
			if err != nil {
				return err
			}
			c := transport.NewConn(nc)
			defer c.Close()
			for {
				m, err := c.ReadMessage()
				if err != nil {
					return err
				}
				if m.Type == transport.TypeHello {
					if err := c.AcceptHello(m); err != nil {
						return err
					}
					continue
				}
				ok, err := transport.Encode(transport.TypeWatchOK, transport.WatchOKPayload{
					Title: title, SizeBytes: int64(numClusters) * clusterBytes, BitrateMbps: 1.5,
					ClusterBytes: clusterBytes, NumClusters: numClusters,
				})
				if err != nil {
					return err
				}
				if err := c.WriteMessage(ok); err != nil {
					return err
				}
				for i := range numClusters {
					if err := c.WriteClusterFrame(cluster(i)); err != nil {
						return err
					}
				}
				done, err := transport.Encode(transport.TypeWatchDone, transport.WatchDonePayload{})
				if err != nil {
					return err
				}
				return c.WriteMessage(done)
			}
		}()
	}()
	return ln.Addr().String(), done
}

// inOrder is the script of a correct stream: cluster i of title, in place.
func inOrder(title string, clusterBytes int64) func(int) (transport.ClusterPayload, []byte) {
	return func(i int) (transport.ClusterPayload, []byte) {
		off := int64(i) * clusterBytes
		return transport.ClusterPayload{Title: title, Index: i, Offset: off, Length: clusterBytes, Source: "U1"},
			media.Content(title, off, clusterBytes)
	}
}

// TestWatchLeasesBodySizedBuffers: the player reads each binary cluster
// body-only, so a 256 KiB cluster takes a buffer of the 256 KiB size class,
// not the next class up that body plus meta would need. A tapped stream sees
// the capacity of every buffer the player reads into.
func TestWatchLeasesBodySizedBuffers(t *testing.T) {
	const (
		clusterBytes = 256 << 10
		numClusters  = 6
		title        = "sized"
	)
	addr, served := scriptedWatch(t, title, clusterBytes, numClusters, inOrder(title, clusterBytes))
	book := transport.NewAddrBook()
	book.Set("U1", addr)
	pool := transport.NewBufferPool(nil)
	var tp tap
	p, err := client.NewPlayer("U1", book, client.WithBufferPool(pool), client.WithDialer(tp.dial))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stats, err := p.Watch(title)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("server: %v", err)
	}
	if !stats.Verified || stats.BytesReceived != numClusters*clusterBytes {
		t.Fatalf("stats = %+v", stats)
	}
	if c := tp.stream(0).maxReadCap.Load(); c != clusterBytes {
		t.Fatalf("largest read buffer has capacity %d, want the %d-byte class", c, clusterBytes)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("pool leases outstanding: %d", n)
	}
}

// TestWatchRefusesOutOfOrderClusters: the player takes only the cluster the
// stream owes next. Each script swaps cluster 2 for one whose bytes verify
// against the offset it claims, so content verification alone passes it;
// the watch must still fail.
func TestWatchRefusesOutOfOrderClusters(t *testing.T) {
	const (
		clusterBytes = 64 << 10
		numClusters  = 4
		title        = "ordered"
	)
	good := inOrder(title, clusterBytes)
	for _, tc := range []struct {
		name     string
		cluster2 func() (transport.ClusterPayload, []byte)
	}{
		{"duplicate in place of a skip", func() (transport.ClusterPayload, []byte) { return good(1) }},
		{"wrong offset", func() (transport.ClusterPayload, []byte) {
			p, _ := good(2)
			p.Offset += clusterBytes
			return p, media.Content(title, p.Offset, clusterBytes)
		}},
		{"wrong title", func() (transport.ClusterPayload, []byte) {
			p, body := good(2)
			p.Title = "other"
			return p, body
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, served := scriptedWatch(t, title, clusterBytes, numClusters, func(i int) (transport.ClusterPayload, []byte) {
				if i == 2 {
					return tc.cluster2()
				}
				return good(i)
			})
			book := transport.NewAddrBook()
			book.Set("U1", addr)
			p, err := client.NewPlayer("U1", book)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			stats, err := p.Watch(title)
			if err == nil {
				t.Fatalf("watch accepted the stream: verified=%v, %d bytes, %d records",
					stats.Verified, stats.BytesReceived, len(stats.Records))
			}
			if len(stats.Records) != 2 {
				t.Fatalf("watch kept %d clusters before failing (%v), want the 2 good ones", len(stats.Records), err)
			}
			<-served
		})
	}
}
