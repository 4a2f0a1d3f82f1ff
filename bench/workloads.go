package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"dvod"
	"dvod/internal/admission"
	"dvod/internal/grnet"
)

// Ground rules shared by every workload (see README.md): the paper's GRNET
// shape, the shipped 256 KiB cluster, 1.5 Mbps titles, and as many closed-loop
// clients as the box has cores, all homed at U2 over loopback TCP.
const (
	clusterBytes = 256 << 10
	bitrateMbps  = 1.5
	homeNode     = dvod.NodeID(grnet.Patra)
	originNode   = dvod.NodeID(grnet.Thessaloniki)
	secondOrigin = dvod.NodeID(grnet.Athens)
	numClients   = 2
	// prefixK is the pinned prefix length tiered_relay asserts per title.
	prefixK = 4
	// linkScale multiplies every GRNET link capacity where admission is on:
	// the year-2000 2 Mbps links refuse the second 1.5 Mbps session, and the
	// benchmark wants admission code to run on every watch, never to refuse.
	linkScale = 1000
	// driftEvery and driftStep rotate dma_churn's rank→title map.
	driftEvery = 500
	driftStep  = 2
	zipfTheta  = 0.729
)

// request is one entry of a workload's request list: all the program ever
// sees of the seed.
type request struct {
	Title string
	Start int
	Class admission.Class
}

// workload is one named traffic mix. Sizes are constants, never calibrated at
// run time, so two runs of one seed replay the same list.
type workload struct {
	name string
	why  string
	// tailPct is the percentile ttfc_tail_ms and watch_tail_ms report: the
	// highest one that both has ten samples beyond it in a window and does not
	// sit on the edge of a latency mode (README.md, Tail percentiles).
	tailPct    float64
	numTitles  int
	titleBytes int64
	// listLen sizes the request list past what a window consumes at this
	// commit; a faster program wraps onto the post-warm-up part of the list.
	listLen int
	// warm is how many leading entries run verified and untimed in set-up
	// (rounds when lockstep).
	warm int
	// lockstep starts each entry on both clients together (a barrier per
	// round) instead of handing entries out from a shared cursor.
	lockstep  bool
	admission bool
	// fileBacked says the options put the disks on files (the probes shape
	// their private arrays alike).
	fileBacked bool
	// prefixClusters is the PrefixClusters every watch must report (0 where
	// no prefix tier is configured).
	prefixClusters int
	// resume builds the players with client.WithResume, the shipped mid-stream
	// recovery (see README.md, Pitfalls, for why dma_churn needs it).
	resume bool
	// options configures the shipped service; dir is a private scratch
	// directory removed at teardown.
	options func(dir string) []dvod.Option
	// origins are the nodes every title is preloaded on.
	origins []dvod.NodeID
	// settle runs after preload, before the verified warm-up.
	settle func(svc *dvod.Service, titles []dvod.Title) error
	// generate builds the request list from the seeded source.
	generate func(w *workload, rng *rand.Rand) []request
	// check is the workload's self-check over the window's counter deltas;
	// each returned line fails the run.
	check func(r *windowResult) []string
}

func (w *workload) titleName(i int) string { return fmt.Sprintf("%s-%02d", w.name, i) }

func (w *workload) titles() []dvod.Title {
	out := make([]dvod.Title, w.numTitles)
	for i := range out {
		out[i] = dvod.Title{Name: w.titleName(i), SizeBytes: w.titleBytes, BitrateMbps: bitrateMbps}
	}
	return out
}

func (w *workload) clustersPerTitle() int { return int(w.titleBytes / clusterBytes) }

// list generates the workload's request list: a pure function of the seed.
func (w *workload) list(seed int64) []request {
	return w.generate(w, rand.New(rand.NewSource(seed)))
}

// topology is the paper's GRNET backbone, with capacities scaled where the
// workload turns admission on.
func (w *workload) topology() dvod.TopologySpec {
	spec := dvod.GRNETTopology()
	if w.admission {
		for i := range spec.Links {
			spec.Links[i].CapacityMbps *= linkScale
		}
	}
	return spec
}

// oneClusterHome shrinks the clients' home array to a single cluster, so the
// DMA can never admit a title there and every cluster is pulled.
func oneClusterHome() dvod.Option { return dvod.WithNodeDisks(homeNode, 1, clusterBytes) }

// fullWatches draws n full watches, each title equally often, in a seeded
// order.
func fullWatches(w *workload, rng *rand.Rand) []request {
	out := make([]request, w.listLen)
	for i := range out {
		out[i] = request{Title: w.titleName(i % w.numTitles)}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// zipfCDF is the cumulative Zipf(theta) distribution over n ranks: rank i
// (1-based) has probability proportional to 1/i^theta. The harness draws its
// own instead of calling internal/workload, so a change to the program can
// never change the benchmark's inputs.
func zipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func sampleCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if u <= cdf[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// setTable2Traffic loads the paper's 10am Table 2 link traffic, so the VRA
// weighs real utilisations instead of an idle network.
func setTable2Traffic(svc *dvod.Service, scale float64) error {
	for _, row := range grnet.Table2() {
		if err := svc.SetLinkTraffic(row.A, row.B, row.TrafficMbps[grnet.At10am-1]*scale); err != nil {
			return err
		}
	}
	return nil
}

// noAdmissionsAllRemote is the self-check of the two pull-everything
// workloads: the home never admits and every delivered cluster was fetched.
func noAdmissionsAllRemote(r *windowResult) []string {
	var bad []string
	if n := r.homeDelta("server.dma_admissions"); n != 0 {
		bad = append(bad, fmt.Sprintf("home admitted %d titles, want 0", n))
	}
	if got, want := r.homeDelta("server.remote_clusters"), r.clusters; got != want {
		bad = append(bad, fmt.Sprintf("remote_clusters %d != clusters delivered %d", got, want))
	}
	return bad
}

var workloads = []*workload{
	{
		name:       "edge_hit",
		why:        "Bulk data plane: file-backed titles resident at the home go disk FileRef to kernel send to client; planner, admission and cache writes do nothing.",
		tailPct:    99,
		numTitles:  16,
		titleBytes: 16 << 20,
		listLen:    8192,
		warm:       32,
		fileBacked: true,
		origins:    []dvod.NodeID{homeNode},
		options: func(dir string) []dvod.Option {
			return []dvod.Option{
				dvod.WithFileBackedDisks(filepath.Join(dir, "disks")),
				// 16 × 16 MiB plus headroom, so preload never evicts.
				dvod.WithNodeDisks(homeNode, 4, 80<<20),
			}
		},
		generate: fullWatches,
		check: func(r *windowResult) []string {
			var bad []string
			if r.homeDelta("server.kernel_sends") == 0 {
				bad = append(bad, "no kernel sends: the sendfile path is not being measured")
			}
			if n := r.homeDelta("server.fallback_sends"); n != 0 {
				bad = append(bad, fmt.Sprintf("%d fallback sends, want 0", n))
			}
			if n := r.sumDelta("server.remote_clusters"); n != 0 {
				bad = append(bad, fmt.Sprintf("%d remote clusters, want 0", n))
			}
			return bad
		},
	},
	{
		name:       "origin_pull",
		why:        "Every cluster crosses server to server: a VRA plan, a hedged fetch and a fresh peer dial per cluster, pooled-copy send on both hops; edge_hit's FileRef and kernel send do nothing.",
		tailPct:    95,
		numTitles:  8,
		titleBytes: 4 << 20,
		listLen:    16384,
		warm:       160,
		origins:    []dvod.NodeID{originNode, secondOrigin},
		options:    func(string) []dvod.Option { return []dvod.Option{oneClusterHome()} },
		settle: func(svc *dvod.Service, _ []dvod.Title) error {
			return setTable2Traffic(svc, 1)
		},
		generate: fullWatches,
		check:    noAdmissionsAllRemote,
	},
	{
		name:       "session_churn",
		why:        "Smallest message: one-cluster seeks under admission, ledger and membership, so per-session cost (dial, hello, admit, publish, plan, release) dominates a 256 KiB payload.",
		tailPct:    99,
		numTitles:  32,
		titleBytes: 4 << 20,
		listLen:    131072,
		warm:       1024,
		admission:  true,
		origins:    []dvod.NodeID{originNode, secondOrigin},
		options: func(string) []dvod.Option {
			return []dvod.Option{
				oneClusterHome(),
				dvod.WithAdmission(1e6),
				dvod.WithMembership(time.Second),
			}
		},
		settle: func(svc *dvod.Service, _ []dvod.Title) error {
			// Synchronous rounds: every tracker sees every member alive and
			// the ledger replicas agree before the first admitted watch.
			for range 3 {
				svc.MembershipRound()
			}
			svc.GossipRound()
			return setTable2Traffic(svc, linkScale)
		},
		generate: func(w *workload, rng *rand.Rand) []request {
			classes := admission.Classes()
			last := w.clustersPerTitle() - 1
			out := make([]request, w.listLen)
			for i := range out {
				out[i] = request{Title: w.titleName(i % w.numTitles), Start: last, Class: classes[i%len(classes)]}
			}
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out
		},
		check: noAdmissionsAllRemote,
	},
	{
		name:       "dma_churn",
		why:        "The paper's DMA at work: the home holds 9 of 32 titles under drifting Zipf demand, so hits, pulls, whole-title admissions and evictions interleave on cache, disk and catalog.",
		tailPct:    99,
		numTitles:  32,
		titleBytes: 4 << 20,
		listLen:    16384,
		warm:       160,
		resume:     true,
		origins:    []dvod.NodeID{originNode},
		options: func(string) []dvod.Option {
			// 4 disks × 9 MiB hold exactly nine striped 4 MiB titles.
			return []dvod.Option{dvod.WithNodeDisks(homeNode, 4, 9<<20)}
		},
		generate: func(w *workload, rng *rand.Rand) []request {
			cdf := zipfCDF(w.numTitles, zipfTheta)
			out := make([]request, w.listLen)
			for i := range out {
				rank := sampleCDF(cdf, rng.Float64())
				shift := i / driftEvery * driftStep
				out[i] = request{Title: w.titleName((rank + shift) % w.numTitles)}
			}
			return out
		},
		check: func(r *windowResult) []string {
			var bad []string
			if r.homeDelta("server.dma_admissions") == 0 {
				bad = append(bad, "no DMA admissions in the window")
			}
			if r.evictions <= 0 {
				bad = append(bad, "no DMA evictions in the window")
			}
			return bad
		},
	},
	{
		name:           "tiered_relay",
		why:            "Only workload where merge, prefix and the relay path work: both clients start one title together, heads come from the local prefix, one relay.join upstream fans the tail to both.",
		tailPct:        90,
		numTitles:      8,
		titleBytes:     4 << 20,
		listLen:        256,
		warm:           2,
		lockstep:       true,
		admission:      true,
		prefixClusters: prefixK,
		origins:        []dvod.NodeID{originNode},
		options: func(string) []dvod.Option {
			return []dvod.Option{
				oneClusterHome(),
				dvod.WithMergeWindow(8),
				dvod.WithPrefixBudget(prefixK * 8 * clusterBytes),
				dvod.WithCohortRelay(),
				dvod.WithAdmission(1e6),
			}
		},
		settle: func(svc *dvod.Service, titles []dvod.Title) error {
			// One watch per title gives the knapsack its popularity points;
			// two clients at a time, like the window.
			p, err := svc.Player(homeNode)
			if err != nil {
				return err
			}
			errs := make(chan error, numClients)
			for c := range numClients {
				go func() {
					var first error
					for i := c; i < len(titles); i += numClients {
						if _, err := p.Watch(titles[i].Name); err != nil && first == nil {
							first = err
						}
					}
					errs <- first
				}()
			}
			for range numClients {
				if err := <-errs; err != nil {
					return err
				}
			}
			if err := svc.PrefixResolve(); err != nil {
				return err
			}
			for _, t := range titles {
				if k := svc.PrefixClusters(homeNode, t.Name); k != prefixK {
					return fmt.Errorf("prefix of %s is %d clusters, want %d", t.Name, k, prefixK)
				}
			}
			return nil
		},
		generate: func(w *workload, rng *rand.Rand) []request {
			// Rounds walk the titles in a seeded order, next round next title.
			order := rng.Perm(w.numTitles)
			out := make([]request, w.listLen)
			for i := range out {
				out[i] = request{Title: w.titleName(order[i%len(order)])}
			}
			return out
		},
		check: func(r *windowResult) []string {
			var bad []string
			if n := r.sumDelta("server.relay_fallbacks"); n != 0 {
				bad = append(bad, fmt.Sprintf("%d relay fallbacks, want 0", n))
			}
			if r.homeDelta("server.relay_upstreams") == 0 {
				bad = append(bad, "no relay upstreams: the relay path is not being measured")
			}
			if r.wrongPrefix != 0 {
				bad = append(bad, fmt.Sprintf("%d watches without a %d-cluster prefix head", r.wrongPrefix, prefixK))
			}
			return bad
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
