package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dvod/internal/admission"
	"dvod/internal/cache"
	"dvod/internal/core"
	"dvod/internal/db"
	"dvod/internal/disk"
	"dvod/internal/grnet"
	"dvod/internal/ledger"
	"dvod/internal/media"
	"dvod/internal/membership"
	"dvod/internal/merge"
	"dvod/internal/prefix"
	"dvod/internal/routing"
	"dvod/internal/striping"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// probeSamples is how many timed batches one probe takes; its figure is the
// median batch's time per call. Batch sizes are constants per probe, sized so
// a batch lasts about a millisecond or more.
const probeSamples = 9

// prober calls each layer's public functions directly, from outside, with the
// workload's sizes (cluster, title, disk backing), and against the still-running
// service where the layer is only reachable over the wire.
type prober struct {
	w    *workload
	dep  *deployment
	tr   *tracer
	dir  string
	vals map[string]float64
	seq  int
}

// time runs fn in probeSamples batches of per calls and returns the median
// nanoseconds per call, recording one span per batch.
func (p *prober) time(name string, per int, fn func()) float64 {
	samples := make([]float64, 0, probeSamples)
	for range probeSamples {
		begin := time.Now()
		for range per {
			fn()
		}
		end := time.Now()
		p.tr.probe(name, begin, end)
		samples = append(samples, float64(end.Sub(begin).Nanoseconds())/float64(per))
	}
	return median(samples)
}

func (p *prober) fileBacked() bool { return p.w.fileBacked }

// array builds a probe-private array shaped like the workload's home array:
// file-backed where the workload's is.
func (p *prober) array(disks int, capBytes int64, fileBacked bool) (*disk.Array, error) {
	p.seq++
	name := fmt.Sprintf("probe%d", p.seq)
	if fileBacked {
		return disk.NewUniformFileArray(name, disks, capBytes, filepath.Join(p.dir, name))
	}
	return disk.NewUniformArray(name, disks, capBytes)
}

func (p *prober) title(i int) media.Title {
	return media.Title{Name: fmt.Sprintf("probe-title-%d", i), SizeBytes: p.w.titleBytes, BitrateMbps: bitrateMbps}
}

// database is a probe-private database module: the GRNET graph (capacities
// scaled as the admission workloads scale them when scaled is set), the 10am
// Table 2 traffic scaled alike, and one title held by both origins.
func (p *prober) database(scaled bool) (*db.DB, media.Title, error) {
	scale := 1.0
	if scaled {
		scale = linkScale
	}
	g := topology.NewGraph()
	for _, n := range grnet.Nodes() {
		if err := g.AddNode(n); err != nil {
			return nil, media.Title{}, err
		}
	}
	for _, row := range grnet.Table2() {
		if _, err := g.AddLink(row.A, row.B, row.CapacityMbps*scale); err != nil {
			return nil, media.Title{}, err
		}
	}
	d := db.New(g)
	now := time.Now()
	for _, row := range grnet.Table2() {
		id := topology.MakeLinkID(row.A, row.B)
		if err := d.UpsertLinkStats(id, row.TrafficMbps[grnet.At10am-1]*scale, now); err != nil {
			return nil, media.Title{}, err
		}
	}
	t := p.title(0)
	if err := d.Catalog().AddTitle(t); err != nil {
		return nil, t, err
	}
	for _, n := range []topology.NodeID{originNode, secondOrigin} {
		if err := d.SetHolding(n, t.Name, true, now); err != nil {
			return nil, t, err
		}
	}
	return d, t, nil
}

// runProbes fills vals with every probe-timed per-layer metric.
func runProbes(res *runResult, vals map[string]float64, tr *tracer) error {
	dir, err := os.MkdirTemp(res.dep.dir, "probes-")
	if err != nil {
		return err
	}
	p := &prober{w: res.w, dep: res.dep, tr: tr, dir: dir, vals: vals}
	for _, layer := range []func() error{
		p.disk, p.striping, p.media, p.cache, p.catalogDB, p.coreRouting, p.admission,
		p.ledger, p.membership, p.transport, p.merge, p.prefix, p.server,
	} {
		if err := layer(); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) disk() error {
	data := media.Content("probe-disk", 0, clusterBytes)
	buf := make([]byte, clusterBytes)
	build := func(fileBacked bool) (*disk.Disk, error) {
		arr, err := p.array(1, 64*clusterBytes, fileBacked)
		if err != nil {
			return nil, err
		}
		d, err := arr.Disk(0)
		if err != nil {
			return nil, err
		}
		return d, d.Write(disk.BlockID{Title: "probe-disk", Part: 0}, data)
	}
	d, err := build(p.fileBacked())
	if err != nil {
		return err
	}
	id := disk.BlockID{Title: "probe-disk", Part: 0}
	var failed error
	read := func() {
		if _, err := d.ReadInto(id, buf); err != nil {
			failed = err
		}
	}
	p.vals["disk.read_into_us"] = p.time("disk.read_into", 32, read) / 1e3
	// Contended: a second goroutine reads the same disk for as long as the
	// timed one does, like the two clients' sessions on one array.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		other := make([]byte, clusterBytes)
		for !stop.Load() {
			_, _ = d.ReadInto(id, other)
		}
	}()
	p.vals["disk.read_into_contended_us"] = p.time("disk.read_into_contended", 32, read) / 1e3
	stop.Store(true)
	wg.Wait()
	part := 1
	p.vals["disk.write_block_us"] = p.time("disk.write_block", 16, func() {
		if err := d.Write(disk.BlockID{Title: "probe-disk", Part: part}, data); err != nil {
			failed = err
		}
		part++
		if part == 48 {
			for i := 1; i < 48; i++ {
				_ = d.Delete(disk.BlockID{Title: "probe-disk", Part: i})
			}
			part = 1
		}
	}) / 1e3
	fd, err := build(true)
	if err != nil {
		return err
	}
	p.vals["disk.fileref_us"] = p.time("disk.fileref", 2048, func() {
		ref, ok := fd.FileRef(id)
		if !ok {
			failed = fmt.Errorf("no FileRef on a file-backed disk")
			return
		}
		ref.Close()
	}) / 1e3
	return failed
}

func (p *prober) striping() error {
	t := p.title(1)
	arr, err := p.array(4, p.w.titleBytes, p.fileBacked())
	if err != nil {
		return err
	}
	var failed error
	var layout striping.Layout
	writes := make([]float64, 0, probeSamples)
	deletes := make([]float64, 0, probeSamples)
	for i := range probeSamples + 1 {
		b := time.Now()
		layout, err = striping.Write(arr, t, clusterBytes, nil)
		m := time.Now()
		if err != nil {
			return err
		}
		if i == probeSamples {
			break // the last copy stays for the read probes
		}
		if err := striping.Delete(arr, layout); err != nil {
			return err
		}
		e := time.Now()
		p.tr.probe("striping.write_title", b, m)
		p.tr.probe("striping.delete_title", m, e)
		writes = append(writes, ms(m.Sub(b)))
		deletes = append(deletes, float64(e.Sub(m).Nanoseconds())/1e3)
	}
	p.vals["striping.write_title_ms"] = median(writes)
	p.vals["striping.delete_title_us"] = median(deletes)
	buf := make([]byte, clusterBytes)
	part := 0
	p.vals["striping.read_part_us"] = p.time("striping.read_part", 32, func() {
		if _, err := striping.ReadPartInto(arr, layout, part, buf); err != nil {
			failed = err
		}
		part = (part + 1) % layout.NumParts()
	}) / 1e3
	farr, err := p.array(4, p.w.titleBytes, true)
	if err != nil {
		return err
	}
	flayout, err := striping.Write(farr, t, clusterBytes, nil)
	if err != nil {
		return err
	}
	p.vals["striping.part_fileref_us"] = p.time("striping.part_fileref", 2048, func() {
		ref, ok := striping.PartFileRef(farr, flayout, part)
		if !ok {
			failed = fmt.Errorf("no PartFileRef on a file-backed array")
			return
		}
		ref.Close()
		part = (part + 1) % flayout.NumParts()
	}) / 1e3
	return failed
}

func (p *prober) media() error {
	buf := make([]byte, clusterBytes)
	off := int64(0)
	ns := p.time("media.content", 8, func() {
		media.ContentAt("probe-media", off, buf)
		off += clusterBytes
	})
	p.vals["media.content_mib_s"] = mib(clusterBytes) / (ns / 1e9)
	media.ContentAt("probe-media", 0, buf)
	ok := true
	ns = p.time("media.verify", 8, func() { ok = ok && media.Verify("probe-media", 0, buf) })
	p.vals["media.verify_mib_s"] = mib(clusterBytes) / (ns / 1e9)
	if !ok {
		return fmt.Errorf("media.Verify rejected media.ContentAt's bytes")
	}
	return nil
}

func (p *prober) cache() error {
	t := p.title(2)
	var failed error
	admits := make([]float64, 0, probeSamples)
	var dma *cache.DMA
	for range probeSamples {
		// A fresh array each time: the request finds room and admits, which
		// stripes the whole title under the DMA's lock.
		arr, err := p.array(4, p.w.titleBytes, p.fileBacked())
		if err != nil {
			return err
		}
		dma, err = cache.NewDMA(cache.Config{Array: arr, ClusterBytes: clusterBytes})
		if err != nil {
			return err
		}
		b := time.Now()
		out, err := dma.OnRequest(t)
		e := time.Now()
		if err != nil || !out.Admitted {
			return fmt.Errorf("cache probe: admission did not happen: %+v %v", out, err)
		}
		p.tr.probe("cache.on_request_admit", b, e)
		admits = append(admits, ms(e.Sub(b)))
	}
	p.vals["cache.on_request_admit_ms"] = median(admits)
	p.vals["cache.on_request_hit_ns"] = p.time("cache.on_request_hit", 4096, func() {
		if out, err := dma.OnRequest(t); err != nil || !out.Hit {
			failed = fmt.Errorf("cache probe: not a hit: %+v %v", out, err)
		}
	})
	p.vals["cache.resident_ns"] = p.time("cache.resident", 16384, func() {
		if !dma.Resident(t.Name) {
			failed = fmt.Errorf("cache probe: title not resident")
		}
	})
	return failed
}

func (p *prober) catalogDB() error {
	d, t, err := p.database(p.w.admission)
	if err != nil {
		return err
	}
	var failed error
	p.vals["catalog.holders_view_ns"] = p.time("catalog.holders_view", 16384, func() {
		if _, err := d.Catalog().HoldersView(t.Name); err != nil {
			failed = err
		}
	})
	p.vals["db.snapshot_ns"] = p.time("db.snapshot", 16384, func() {
		if _, err := d.Snapshot(); err != nil {
			failed = err
		}
	})
	holds := true
	now := time.Now()
	p.vals["db.set_holding_us"] = p.time("db.set_holding", 1024, func() {
		if err := d.SetHolding(homeNode, t.Name, holds, now); err != nil {
			failed = err
		}
		holds = !holds
	}) / 1e3
	return failed
}

func (p *prober) coreRouting() error {
	d, t, err := p.database(p.w.admission)
	if err != nil {
		return err
	}
	planner, err := core.NewPlanner(d, core.VRA{}, nil)
	if err != nil {
		return err
	}
	var failed error
	p.vals["core.plan_us"] = p.time("core.plan", 256, func() {
		if _, err := planner.Plan(homeNode, t.Name); err != nil {
			failed = err
		}
	}) / 1e3
	p.vals["core.plan_bandwidth_us"] = p.time("core.plan_bandwidth", 256, func() {
		if _, err := planner.PlanBandwidth(homeNode, t.Name, bitrateMbps, nil); err != nil && p.w.admission {
			// The native 2 Mbps links cannot carry a session beside the Table 2
			// traffic; only the scaled topology must always plan.
			failed = err
		}
	}) / 1e3
	snap, err := d.Snapshot()
	if err != nil {
		return err
	}
	weights, err := snap.Weights(topology.DefaultNormalizationK)
	if err != nil {
		return err
	}
	costs := routing.CostTable(weights)
	p.vals["routing.dijkstra_us"] = p.time("routing.dijkstra", 256, func() {
		if _, err := routing.ShortestPaths(snap.Graph(), costs, homeNode); err != nil {
			failed = err
		}
	}) / 1e3
	return failed
}

// route is the two-link path a pulled session from U4 to U2 reserves.
func (p *prober) route(d *db.DB) ([]topology.LinkID, error) {
	snap, err := d.Snapshot()
	if err != nil {
		return nil, err
	}
	dec, err := core.VRA{}.Select(snap, homeNode, []topology.NodeID{originNode})
	if err != nil {
		return nil, err
	}
	return dec.Path.Links(), nil
}

func (p *prober) admission() error {
	// Admission is probed on the scaled links whatever the workload: on the
	// native ones the broker refuses, which is the pitfall README.md records.
	d, t, err := p.database(true)
	if err != nil {
		return err
	}
	links, err := p.route(d)
	if err != nil {
		return err
	}
	led, err := ledger.New(ledger.Config{Origin: homeNode})
	if err != nil {
		return err
	}
	brk, err := admission.New(admission.Config{Node: homeNode, CapacityMbps: 1e6, Snapshot: d.Snapshot, Ledger: led})
	if err != nil {
		return err
	}
	req := admission.Request{Class: admission.Standard, Title: t.Name, BitrateMbps: bitrateMbps, Links: links}
	var failed error
	p.vals["admission.admit_release_us"] = p.time("admission.admit_release", 512, func() {
		g, err := brk.Admit(req)
		if err != nil {
			failed = err
			return
		}
		brk.Release(g)
	}) / 1e3
	// Shared: a first member holds the group open, as a cohort's first watcher
	// does, and the timed call attaches to it.
	first, err := brk.AdmitWaitShared(req, "watch:"+t.Name)
	if err != nil {
		return err
	}
	p.vals["admission.admit_shared_us"] = p.time("admission.admit_shared", 512, func() {
		g, err := brk.AdmitWaitShared(req, "watch:"+t.Name)
		if err != nil {
			failed = err
			return
		}
		brk.Release(g)
	}) / 1e3
	brk.Release(first)
	return failed
}

func (p *prober) ledger() error {
	d, _, err := p.database(p.w.admission)
	if err != nil {
		return err
	}
	links, err := p.route(d)
	if err != nil {
		return err
	}
	a, err := ledger.New(ledger.Config{Origin: homeNode})
	if err != nil {
		return err
	}
	b, err := ledger.New(ledger.Config{Origin: originNode})
	if err != nil {
		return err
	}
	class := string(admission.Standard)
	p.vals["ledger.reserve_release_us"] = p.time("ledger.reserve_release", 512, func() {
		a.Reserve(links, class, bitrateMbps)
		a.Release(links, class, bitrateMbps)
	}) / 1e3
	// One anti-entropy round in memory: a changes a row, pushes its delta,
	// b merges and answers, a merges the answer.
	p.vals["ledger.sync_round_us"] = p.time("ledger.sync_round", 256, func() {
		a.Reserve(links, class, bitrateMbps)
		a.Merge(b.HandleSync(a.Sync(originNode)))
		a.Release(links, class, bitrateMbps)
	}) / 1e3
	return nil
}

func (p *prober) membership() error {
	d, t, err := p.database(p.w.admission)
	if err != nil {
		return err
	}
	tr, err := membership.New(membership.Config{Self: homeNode, Seeds: d.Graph().Nodes()})
	if err != nil {
		return err
	}
	book := transport.NewAddrBook()
	for _, n := range d.Graph().Nodes() {
		book.Set(n, "127.0.0.1:1")
	}
	// Wired as dvod wires it: not draining and no front door, the state every
	// watch of the benchmark meets.
	dir, err := membership.NewDirector(membership.DirectorConfig{
		Self:     homeNode,
		Holders:  d.Catalog().HoldersView,
		Lookup:   book.Lookup,
		Members:  tr.Members,
		Resident: func(string) bool { return false },
	})
	if err != nil {
		return err
	}
	var failed error
	p.vals["membership.route_ns"] = p.time("membership.route", 16384, func() {
		if _, _, ok := dir.Route(t.Name, 0); ok {
			failed = fmt.Errorf("membership probe: an idle director redirected")
		}
	})
	return failed
}

func (p *prober) transport() error {
	homeAddr, err := p.dep.svc.ServerAddr(homeNode)
	if err != nil {
		return err
	}
	var failed error
	p.vals["transport.dial_hello_us"] = p.time("transport.dial_hello", 16, func() {
		c, err := transport.Dial(homeAddr)
		if err != nil {
			failed = err
			return
		}
		if ok, err := c.Negotiate(); err != nil || !ok {
			failed = fmt.Errorf("hello: granted=%v err=%v", ok, err)
		}
		_ = c.Close()
	}) / 1e3
	watch := transport.WatchPayload{Title: p.w.titleName(0), StartCluster: 15, Class: string(admission.Standard)}
	p.vals["transport.ctl_codec_ns"] = p.time("transport.ctl_codec", 1024, func() {
		m, err := transport.Encode(transport.TypeWatch, watch)
		if err != nil {
			failed = err
			return
		}
		if _, err := transport.Decode[transport.WatchPayload](m); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return failed
	}
	return p.clusterWire()
}

// clusterWire times the cluster send and receive calls over a private
// loopback TCP pair, with binary framing on as every measured session has it.
func (p *prober) clusterWire() error {
	pair, err := newLoopPair()
	if err != nil {
		return err
	}
	defer pair.close()
	pool := transport.NewBufferPool(nil)
	payload := transport.ClusterPayload{Title: "probe-wire", Index: 0, Offset: 0, Length: clusterBytes, Source: homeNode}
	mem := transport.NewLeasedFrame(nil, media.Content("probe-wire", 0, clusterBytes))

	farr, err := p.array(1, 4*clusterBytes, true)
	if err != nil {
		return err
	}
	fd, err := farr.Disk(0)
	if err != nil {
		return err
	}
	id := disk.BlockID{Title: "probe-wire", Part: 0}
	if err := fd.Write(id, mem.Payload); err != nil {
		return err
	}
	ref, ok := fd.FileRef(id)
	if !ok {
		return fmt.Errorf("wire probe: no FileRef")
	}
	defer ref.Close()
	file := transport.NewFileFrame(ref.File(), ref.Offset(), ref.Size(), nil)

	const per = 32
	total := 3 * per * probeSamples
	// The far end reads every frame; its own timings are the read probe.
	reads := make(chan []float64, 1)
	go func() {
		var ns []float64
		for range total {
			b := time.Now()
			_, f, err := pair.server.ReadFrameOrMessage(pool)
			if err != nil {
				break
			}
			ns = append(ns, float64(time.Since(b).Nanoseconds()))
			f.Release()
		}
		reads <- ns
	}()
	var failed error
	send := func(body *transport.Frame, wantKernel bool) func() {
		return func() {
			kernel, err := pair.client.WriteClusterBody(pool, transport.TypeCluster, payload, body)
			if err != nil {
				failed = err
			} else if kernel != wantKernel {
				failed = fmt.Errorf("wire probe: kernel send = %v, want %v", kernel, wantKernel)
			}
		}
	}
	p.vals["transport.write_cluster_copy_us"] = p.time("transport.write_cluster_copy", per, send(mem, false)) / 1e3
	p.vals["transport.write_cluster_kernel_us"] = p.time("transport.write_cluster_kernel", per, send(file, true)) / 1e3
	// A last round of copy sends keeps the reader fed while only it is timed.
	p.time("transport.read_frame_feed", per, send(mem, false))
	if failed != nil {
		return failed
	}
	ns := <-reads
	if len(ns) != total {
		return fmt.Errorf("wire probe: read %d of %d frames", len(ns), total)
	}
	p.vals["transport.read_frame_us"] = median(ns) / 1e3
	return nil
}

func (p *prober) merge() error {
	pool := transport.NewBufferPool(nil)
	body := media.Content("probe-merge", 0, clusterBytes)
	n := p.w.clustersPerTitle()
	src := func(index int) (*transport.Frame, transport.ClusterPayload, error) {
		buf := pool.Get(clusterBytes)
		copy(buf, body)
		return transport.NewLeasedFrame(pool, buf), transport.ClusterPayload{
			Title: "probe-merge", Index: index, Offset: int64(index) * clusterBytes, Length: clusterBytes, Source: homeNode,
		}, nil
	}
	drain := func(sub *merge.Sub) int {
		got := 0
		for {
			item, ok := sub.Recv()
			if !ok {
				break
			}
			item.Frame.Release()
			got++
		}
		sub.Leave()
		return got
	}
	var failed error
	// One cohort per call: two sessions join at cluster 0 and both drain the
	// whole title, so a call fans n clusters out to two subscribers.
	perCall := p.time("merge.fanout", 1, func() {
		reg, err := merge.NewRegistry(merge.Config{Window: 8})
		if err != nil {
			failed = err
			return
		}
		a, err := reg.Join("probe-merge", n, 0, src)
		if err != nil {
			failed = err
			return
		}
		b, err := reg.Join("probe-merge", n, 0, src)
		if err != nil {
			failed = err
			return
		}
		done := make(chan int, 1)
		go func() { done <- drain(b) }()
		if got, other := drain(a), <-done; got+other != 2*n {
			failed = fmt.Errorf("merge probe: delivered %d+%d clusters, want %d each", got, other, n)
		}
	})
	p.vals["merge.fanout_us_per_cluster"] = perCall / float64(n) / 1e3
	return failed
}

func (p *prober) prefix() error {
	titles := make([]media.Title, 8)
	cands := make([]prefix.Candidate, len(titles))
	for i := range titles {
		titles[i] = p.title(10 + i)
		cands[i] = prefix.Candidate{Name: titles[i].Name, Clusters: int64(p.w.clustersPerTitle()), Points: 1}
	}
	budget := int64(prefixK * len(titles))
	var failed error
	p.vals["prefix.solve_us"] = p.time("prefix.solve", 256, func() {
		if got := prefix.Solve(cands, budget); len(got) != len(titles) {
			failed = fmt.Errorf("prefix probe: knapsack pinned %d titles, want %d", len(got), len(titles))
		}
	}) / 1e3
	var mgr *prefix.Manager
	resolves := make([]float64, 0, probeSamples)
	for range probeSamples {
		arr, err := p.array(1, budget*clusterBytes, p.fileBacked())
		if err != nil {
			return err
		}
		mgr, err = prefix.New(prefix.Config{
			Array:        arr,
			ClusterBytes: clusterBytes,
			BudgetBytes:  budget * clusterBytes,
			Points:       func(string) int64 { return 1 },
			Catalog:      func() []media.Title { return titles },
		})
		if err != nil {
			return err
		}
		b := time.Now()
		_, _, err = mgr.Resolve()
		e := time.Now()
		if err != nil {
			return err
		}
		p.tr.probe("prefix.resolve", b, e)
		resolves = append(resolves, ms(e.Sub(b)))
	}
	p.vals["prefix.resolve_ms"] = median(resolves)
	p.vals["prefix.lookup_ns"] = p.time("prefix.lookup", 16384, func() {
		if _, ok := mgr.Lookup(titles[0].Name, 0); !ok {
			failed = fmt.Errorf("prefix probe: cluster 0 not pinned after Resolve")
		}
	})
	return failed
}

// server probes the running service through its wire API with a raw
// connection, the way a peer server and a player reach it.
func (p *prober) server() error {
	svc := p.dep.svc
	origin := p.w.origins[0]
	originAddr, err := svc.ServerAddr(origin)
	if err != nil {
		return err
	}
	homeAddr, err := svc.ServerAddr(homeNode)
	if err != nil {
		return err
	}
	pool := transport.NewBufferPool(nil)
	title := p.w.titleName(0)
	get, err := transport.Encode(transport.TypeClusterGet, transport.ClusterGetPayload{Title: title, Index: 0, ClusterBytes: clusterBytes})
	if err != nil {
		return err
	}
	var failed error
	// One cluster.get on c, as server.fetchRemoteCluster issues it (JSON
	// framing, no hello).
	clusterGet := func(c *transport.Conn) {
		if err := c.WriteMessage(get); err != nil {
			failed = err
			return
		}
		_, f, err := c.ReadMessageWithBodyPool(pool, func(m transport.Message) (int64, error) {
			if rerr := transport.AsError(m); rerr != nil {
				return 0, rerr
			}
			cp, err := transport.Decode[transport.ClusterPayload](m)
			return cp.Length, err
		})
		if err != nil {
			failed = err
			return
		}
		f.Release()
	}
	p.vals["server.cluster_get_us"] = p.time("server.cluster_get", 16, func() {
		c, err := transport.Dial(originAddr)
		if err != nil {
			failed = err
			return
		}
		clusterGet(c)
		_ = c.Close()
	}) / 1e3
	reuse, err := transport.Dial(originAddr)
	if err != nil {
		return err
	}
	p.vals["server.cluster_get_reuse_us"] = p.time("server.cluster_get_reuse", 16, func() { clusterGet(reuse) }) / 1e3
	_ = reuse.Close()
	if failed != nil {
		return failed
	}
	// A one-cluster watch of a title resident where it is asked for: the
	// session floor without a remote fetch.
	last := p.w.clustersPerTitle() - 1
	watch, err := transport.Encode(transport.TypeWatch, transport.WatchPayload{Title: title, StartCluster: last})
	if err != nil {
		return err
	}
	p.vals["server.watch_1c_us"] = p.time("server.watch_1c", 16, func() {
		c, err := transport.Dial(originAddr)
		if err != nil {
			failed = err
			return
		}
		defer c.Close()
		if _, err := c.Negotiate(); err != nil {
			failed = err
			return
		}
		if err := c.WriteMessage(watch); err != nil {
			failed = err
			return
		}
		clusters := 0
		for {
			m, f, err := c.ReadFrameOrMessage(pool)
			if err != nil {
				failed = err
				return
			}
			if f != nil {
				if f.Type == transport.FrameCluster {
					clusters++
				}
				f.Release()
				continue
			}
			if rerr := transport.AsError(m); rerr != nil {
				failed = rerr
				return
			}
			if m.Type == transport.TypeWatchDone {
				break
			}
		}
		if clusters != 1 {
			failed = fmt.Errorf("server probe: one-cluster watch delivered %d clusters", clusters)
		}
	}) / 1e3
	titles, err := transport.Encode(transport.TypeTitles, nil)
	if err != nil {
		return err
	}
	p.vals["server.titles_us"] = p.time("server.titles", 16, func() {
		c, err := transport.Dial(homeAddr)
		if err != nil {
			failed = err
			return
		}
		defer c.Close()
		if err := c.WriteMessage(titles); err != nil {
			failed = err
			return
		}
		m, err := c.ReadMessage()
		if err == nil {
			err = transport.AsError(m)
		}
		if err != nil {
			failed = err
		}
	}) / 1e3
	return failed
}

// loopPair is one connected loopback TCP pair wrapped in the program's Conn.
type loopPair struct {
	client, server *transport.Conn
}

func newLoopPair() (*loopPair, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   *transport.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			ch <- accepted{err: err}
			return
		}
		ch <- accepted{c: transport.NewConn(nc)}
	}()
	client, err := transport.Dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	acc := <-ch
	if acc.err != nil {
		_ = client.Close()
		return nil, acc.err
	}
	client.EnableBinaryFrames()
	acc.c.EnableBinaryFrames()
	return &loopPair{client: client, server: acc.c}, nil
}

func (l *loopPair) close() {
	_ = l.client.Close()
	_ = l.server.Close()
}

// layerValues fills vals with every per-layer metric of a traced run: the
// probes' timings plus the window's counter deltas.
func layerValues(res *runResult, vals map[string]float64, tr *tracer) error {
	if err := runProbes(res, vals, tr); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	win := res.window
	watches := float64(len(win.elapsed))
	perWatch := func(n int64) float64 { return float64(n) / watches }
	share := func(part, rest int64) float64 {
		if part+rest == 0 {
			return 0
		}
		return float64(part) / float64(part+rest)
	}
	hits := win.homeDelta("server.dma_hits")
	vals["cache.hit_ratio"] = share(hits, int64(watches)-hits)
	vals["cache.admissions_per_kwatch"] = 1e3 * perWatch(win.homeDelta("server.dma_admissions"))
	vals["cache.evictions_per_kwatch"] = 1e3 * perWatch(win.evictions)
	vals["admission.admitted_per_watch"] = perWatch(win.admissionCount("admitted"))
	vals["admission.rejected"] = float64(win.admissionCount("rejected"))
	vals["ledger.gossip_rounds"] = float64(win.sumDelta("ledger.gossip_rounds"))
	vals["membership.bytes_out_per_s"] = float64(win.sumDelta("membership.bytes_out")) / win.wall.Seconds()
	vals["transport.kernel_send_share"] = share(win.sumDelta("server.kernel_sends"), win.sumDelta("server.fallback_sends"))
	vals["transport.pool_hit_ratio"] = share(win.sumDelta("transport.pool_hits"), win.sumDelta("transport.pool_misses"))
	vals["merge.sessions_merged_per_watch"] = perWatch(win.sumDelta("merge.sessions_merged"))
	vals["merge.disk_reads_saved_per_watch"] = perWatch(win.sumDelta("merge.disk_reads_saved"))
	vals["prefix.reads_per_watch"] = perWatch(win.sumDelta("server.prefix_reads"))
	vals["server.remote_clusters_per_watch"] = perWatch(win.sumDelta("server.remote_clusters"))
	vals["server.disk_reads_per_watch"] = perWatch(win.sumDelta("server.disk_reads"))
	vals["server.hedges_per_kwatch"] = 1e3 * perWatch(win.sumDelta("client.hedges_launched"))
	vals["server.fetch_retries"] = float64(win.sumDelta("server.fetch_retries"))
	vals["server.relay_upstreams_per_watch"] = perWatch(win.sumDelta("server.relay_upstreams"))
	vals["server.relay_fallbacks"] = float64(win.sumDelta("server.relay_fallbacks"))
	vals["client.cluster_gap_p50_us"] = 0
	if len(win.gapsUS) > 0 {
		vals["client.cluster_gap_p50_us"] = median(win.gapsUS)
	}
	vals["client.startup_share"] = vals["ttfc_p50_ms"] / vals["watch_p50_ms"]
	vals["client.stalls_per_kwatch"] = 1e3 * perWatch(int64(win.stalls))
	vals["client.resumes_per_kwatch"] = 1e3 * perWatch(int64(win.resumes))
	vals["runtime.cpu_util"] = win.cpuS / win.wall.Seconds() / float64(runtime.NumCPU())
	vals["runtime.allocs_per_watch"] = perWatch(int64(win.mem[1].Mallocs - win.mem[0].Mallocs))
	vals["runtime.alloc_kib_per_watch"] = perWatch(int64(win.mem[1].TotalAlloc-win.mem[0].TotalAlloc)) / 1024
	vals["runtime.gc_pause_total_ms"] = float64(win.mem[1].PauseTotalNs-win.mem[0].PauseTotalNs) / 1e6
	vals["bench.tracing_overhead_pct"] = 100 * (win.plainMiBs - win.tracedMiBs) / win.plainMiBs
	vals["bench.window_s"] = win.wall.Seconds()
	return nil
}
