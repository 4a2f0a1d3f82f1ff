package admission

import (
	"fmt"
	"sync/atomic"
	"testing"

	"dvod/internal/topology"
)

// benchGraph builds a hub-and-spoke topology for benchmarks without the
// *testing.T plumbing stressGraph needs.
func benchGraph(b *testing.B, n int) (*topology.Graph, []topology.LinkID) {
	b.Helper()
	g := topology.NewGraph()
	if err := g.AddNode("hub"); err != nil {
		b.Fatal(err)
	}
	links := make([]topology.LinkID, 0, n)
	for i := 0; i < n; i++ {
		node := topology.NodeID(fmt.Sprintf("s%02d", i))
		if err := g.AddNode(node); err != nil {
			b.Fatal(err)
		}
		id, err := g.AddLink("hub", node, 1e9)
		if err != nil {
			b.Fatal(err)
		}
		links = append(links, id)
	}
	if err := g.Validate(); err != nil {
		b.Fatal(err)
	}
	return g, links
}

// BenchmarkShardedAdmission measures the full admit-then-release cycle under
// parallel load, per shard count — the contention profile the Ext-18 study
// commits as BENCH_contention.json. Each worker admits over a distinct spoke
// link so shard locks actually spread.
func BenchmarkShardedAdmission(b *testing.B) {
	g, links := benchGraph(b, 64)
	snap, err := topology.NewSnapshot(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			br, err := New(Config{
				Node:         "hub",
				CapacityMbps: 1e12,
				MaxSessions:  1 << 30,
				Shards:       shards,
				Snapshot:     func() (*topology.Snapshot, error) { return snap, nil },
			})
			if err != nil {
				b.Fatal(err)
			}
			var worker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				link := links[int(worker.Add(1))%len(links)]
				route := []topology.LinkID{link}
				for pb.Next() {
					g, err := br.Admit(Request{Class: Premium, BitrateMbps: 4, Links: route})
					if err != nil {
						b.Error(err)
						return
					}
					br.Release(g)
				}
			})
		})
	}
}
