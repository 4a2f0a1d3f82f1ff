package db

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"dvod/internal/media"
	"dvod/internal/topology"
)

// lockfreeDB builds a db over a star topology with titles and holders spread
// across every node.
func lockfreeDB(t *testing.T, nodes, titles int) (*DB, []topology.LinkID, []string) {
	t.Helper()
	g := topology.NewGraph()
	if err := g.AddNode("hub"); err != nil {
		t.Fatal(err)
	}
	var links []topology.LinkID
	var nodeIDs []topology.NodeID
	for i := 0; i < nodes; i++ {
		n := topology.NodeID(fmt.Sprintf("n%02d", i))
		nodeIDs = append(nodeIDs, n)
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
		id, err := g.AddLink("hub", n, 1000)
		if err != nil {
			t.Fatal(err)
		}
		links = append(links, id)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	d := New(g)
	var names []string
	for i := 0; i < titles; i++ {
		name := fmt.Sprintf("title-%03d", i)
		names = append(names, name)
		if err := d.Catalog().AddTitle(media.Title{Name: name, SizeBytes: 1 << 20, BitrateMbps: 1.5}); err != nil {
			t.Fatal(err)
		}
		if err := d.SetHolding(nodeIDs[i%len(nodeIDs)], name, true, time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return d, links, names
}

// TestSnapshotAndHoldersAcquireNoMutex is the lock-free-read-path assertion
// the sharding PR promises: with mutex profiling fully enabled, goroutines
// hammering Snapshot and HoldersView while writers concurrently upsert link
// stats and flip holdings must produce no mutex-contention samples anywhere
// under Snapshot or the holder lookup. The writers contend among themselves
// (their frames may appear in the profile); the read path may not.
func TestSnapshotAndHoldersAcquireNoMutex(t *testing.T) {
	d, links, titles := lockfreeDB(t, 16, 64)

	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	const readers = 8
	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = d.UpsertLinkStats(links[i%len(links)], float64(i%900), time.Unix(int64(i), 0))
			i++
		}
	}()
	go func() {
		defer writers.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = d.SetHolding("hub", titles[i%len(titles)], i%2 == 0, time.Unix(int64(i), 0))
			i++
		}
	}()

	var readersWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			for i := 0; i < 20_000; i++ {
				snap, err := d.Snapshot()
				if err != nil || snap == nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				if _, err := d.Catalog().HoldersView(titles[(r+i)%len(titles)]); err != nil {
					t.Errorf("holders: %v", err)
					return
				}
			}
		}(r)
	}
	readersWG.Wait()
	close(stop)
	writers.Wait()

	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	profile := buf.String()
	for _, forbidden := range []string{"(*DB).Snapshot", "HoldersView", "(*Catalog).Holders"} {
		if strings.Contains(profile, forbidden) {
			t.Fatalf("mutex profile contains %q — the read path took a contended lock:\n%s", forbidden, profile)
		}
	}
}

// TestSnapshotSeesLatestPublish checks the copy-on-write publish protocol:
// after UpsertLinkStats returns, the very next Snapshot load observes the
// sample, and a graph swap republishes over the new view.
func TestSnapshotSeesLatestPublish(t *testing.T) {
	d, links, _ := lockfreeDB(t, 4, 4)
	if err := d.UpsertLinkStats(links[0], 500, time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if u := snap.Utilization(links[0]); u != 0.5 {
		t.Fatalf("snapshot missed the published sample: utilization %g, want 0.5", u)
	}
	// Grow the fleet: the republished snapshot must carry surviving links'
	// samples forward and start brand-new links idle.
	g2 := topology.NewGraph()
	for _, n := range []topology.NodeID{"hub", "n00", "n01", "n02", "n03", "n99"} {
		if err := g2.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	keep, err := g2.AddLink("hub", "n00", 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []topology.NodeID{"n01", "n02", "n03"} {
		if _, err := g2.AddLink("hub", n, 1000); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := g2.AddLink("hub", "n99", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.SetGraph(g2); err != nil {
		t.Fatal(err)
	}
	snap, err = d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Graph() != g2 {
		t.Fatal("snapshot not republished over the swapped graph")
	}
	if u := snap.Utilization(keep); u != 0.5 {
		t.Fatalf("surviving link lost its sample across the swap: utilization %g, want 0.5", u)
	}
	if u := snap.Utilization(fresh); u != 0 {
		t.Fatalf("brand-new link not idle: utilization %g", u)
	}
}

// TestConcurrentCatalogStress races title adds, holding flips, and lock-free
// reads across shards; the -race build is the assertion.
func TestConcurrentCatalogStress(t *testing.T) {
	d, _, titles := lockfreeDB(t, 8, 32)
	c := d.Catalog()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch (w + i) % 4 {
				case 0:
					_ = c.SetHolding("hub", titles[i%len(titles)], i%2 == 0)
				case 1:
					_, _ = c.Holders(titles[i%len(titles)])
				case 2:
					_ = c.Search("title-0")
				case 3:
					_ = c.TitlesHeldBy("hub")
				}
			}
		}(w)
	}
	wg.Wait()
}
