package merge_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvod/internal/merge"
	"dvod/internal/metrics"
	"dvod/internal/transport"
)

const clusterBytes = 4096 // matches a pool size class, so Put is accepted

// gatedSource returns a Source that blocks on gate (when non-nil) before each
// read, counts reads, and leases real pool buffers stamped with the cluster
// index so receivers can check ordering and content sharing.
func gatedSource(pool *transport.BufferPool, reads *atomic.Int64, gate <-chan struct{}) merge.Source {
	return func(index int) (*transport.Frame, transport.ClusterPayload, error) {
		if gate != nil {
			<-gate
		}
		reads.Add(1)
		buf := pool.Get(clusterBytes)
		buf[0] = byte(index)
		f := transport.NewLeasedFrame(pool, buf)
		return f, transport.ClusterPayload{
			Title:  "hot-title",
			Index:  index,
			Offset: int64(index) * clusterBytes,
			Length: clusterBytes,
		}, nil
	}
}

// drain consumes the subscriber until its queue closes, returning the cluster
// indices received in order.
func drain(t *testing.T, s *merge.Sub) []int {
	t.Helper()
	var got []int
	for {
		item, ok := s.Recv()
		if !ok {
			return got
		}
		if item.Frame.Payload[0] != byte(item.Payload.Index) {
			t.Errorf("cluster %d carries payload stamped %d", item.Payload.Index, item.Frame.Payload[0])
		}
		got = append(got, item.Payload.Index)
		item.Frame.Release()
	}
}

func wantRange(t *testing.T, got []int, from, to int) {
	t.Helper()
	if len(got) != to-from {
		t.Fatalf("received %d clusters, want %d (range [%d,%d))", len(got), to-from, from, to)
	}
	for i, idx := range got {
		if idx != from+i {
			t.Fatalf("cluster %d arrived at position %d, want %d", idx, i, from+i)
		}
	}
}

func waitCohorts(t *testing.T, r *merge.Registry, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.ActiveCohorts() != want {
		if time.Now().After(deadline) {
			t.Fatalf("ActiveCohorts = %d, want %d", r.ActiveCohorts(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMergeFanoutSingleRead(t *testing.T) {
	const watchers, clusters = 4, 32
	mreg := metrics.NewRegistry()
	// QueueDepth covers the whole title so no queue ever fills and every
	// watcher is guaranteed the complete stream via broadcast.
	r, err := merge.NewRegistry(merge.Config{Window: 8, QueueDepth: clusters * 2, Metrics: mreg})
	if err != nil {
		t.Fatal(err)
	}
	pool := transport.NewBufferPool(nil)
	var reads atomic.Int64
	gate := make(chan struct{})
	src := gatedSource(pool, &reads, gate)

	// The gate holds the pump at cluster 0 while all watchers join, so every
	// session lands in one cohort at position 0.
	subs := make([]*merge.Sub, watchers)
	for i := range subs {
		if subs[i], err = r.Join("hot-title", clusters, 0, src); err != nil {
			t.Fatal(err)
		}
	}
	if subs[0].CohortID() != subs[watchers-1].CohortID() {
		t.Fatalf("watchers split across cohorts %d and %d", subs[0].CohortID(), subs[watchers-1].CohortID())
	}
	if !subs[0].Created() || subs[1].Created() {
		t.Fatalf("Created() = %v/%v, want true for the first join only", subs[0].Created(), subs[1].Created())
	}
	close(gate)

	var wg sync.WaitGroup
	received := make([][]int, watchers)
	for i, s := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			received[i] = drain(t, s)
		}()
	}
	wg.Wait()
	for i := range received {
		wantRange(t, received[i], 0, clusters)
	}
	if got := reads.Load(); got != clusters {
		t.Fatalf("source reads = %d, want %d (one per cluster, not per watcher)", got, clusters)
	}
	snap := mreg.Snapshot()
	if got := snap.Counters["merge.sessions_merged"]; got != watchers-1 {
		t.Fatalf("merge.sessions_merged = %d, want %d", got, watchers-1)
	}
	if got := snap.Counters["merge.disk_reads_saved"]; got != (watchers-1)*clusters {
		t.Fatalf("merge.disk_reads_saved = %d, want %d", got, (watchers-1)*clusters)
	}
	if got := snap.Counters["merge.bytes_saved"]; got != (watchers-1)*clusters*clusterBytes {
		t.Fatalf("merge.bytes_saved = %d, want %d", got, (watchers-1)*clusters*clusterBytes)
	}
	waitCohorts(t, r, 0)
}

func TestMergePatchAndForwardJoins(t *testing.T) {
	const clusters = 32
	r, err := merge.NewRegistry(merge.Config{Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	pool := transport.NewBufferPool(nil)
	var reads atomic.Int64
	gate := make(chan struct{}, clusters)
	src := gatedSource(pool, &reads, gate)

	base, err := r.Join("hot-title", clusters, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	// Let exactly five reads through and consume them, so the cohort is
	// parked at position 5 with the pump blocked on read 5.
	for i := 0; i < 5; i++ {
		gate <- struct{}{}
		item, ok := base.Recv()
		if !ok {
			t.Fatal("base stream ended early")
		}
		item.Frame.Release()
	}
	for reads.Load() < 5 {
		time.Sleep(time.Millisecond)
	}

	patch, err := r.Join("hot-title", clusters, 2, src)
	if err != nil {
		t.Fatal(err)
	}
	if patch.Start() != 5 {
		t.Fatalf("patch joiner Start() = %d, want cohort position 5", patch.Start())
	}
	if patch.Created() {
		t.Fatal("patch joiner reports Created()")
	}
	forward, err := r.Join("hot-title", clusters, 9, src)
	if err != nil {
		t.Fatal(err)
	}
	if forward.Start() != 9 {
		t.Fatalf("forward joiner Start() = %d, want its own start 9", forward.Start())
	}
	if patch.CohortID() != base.CohortID() || forward.CohortID() != base.CohortID() {
		t.Fatal("joiners did not share the base cohort")
	}

	for i := 5; i < clusters; i++ {
		gate <- struct{}{}
	}
	var wg sync.WaitGroup
	var baseGot, patchGot, forwardGot []int
	for _, pair := range []struct {
		s   *merge.Sub
		out *[]int
	}{{base, &baseGot}, {patch, &patchGot}, {forward, &forwardGot}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			*pair.out = drain(t, pair.s)
		}()
	}
	wg.Wait()
	wantRange(t, baseGot, 5, clusters)
	wantRange(t, patchGot, 5, clusters)
	wantRange(t, forwardGot, 9, clusters)
	if got := reads.Load(); got != clusters {
		t.Fatalf("source reads = %d, want %d", got, clusters)
	}
}

func TestMergeOutOfWindowStartsNewCohort(t *testing.T) {
	const clusters = 64
	r, err := merge.NewRegistry(merge.Config{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	pool := transport.NewBufferPool(nil)
	var reads atomic.Int64
	// Both cohorts read through this gate; capacity covers every token so
	// the fills below never block on pump back-pressure.
	gate := make(chan struct{}, 2*clusters)
	src := gatedSource(pool, &reads, gate)

	a, err := r.Join("hot-title", clusters, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Join("hot-title", clusters, 20, src)
	if err != nil {
		t.Fatal(err)
	}
	if a.CohortID() == b.CohortID() {
		t.Fatal("join 20 clusters ahead merged into a window-4 cohort")
	}
	if got := r.ActiveCohorts(); got != 2 {
		t.Fatalf("ActiveCohorts = %d, want 2", got)
	}
	if !b.Created() {
		t.Fatal("out-of-window joiner should open its own cohort")
	}
	for i := 0; i < 2*clusters; i++ {
		gate <- struct{}{}
	}
	wantRange(t, drain(t, a), 0, clusters)
	wantRange(t, drain(t, b), 20, clusters)
	waitCohorts(t, r, 0)
}

func TestMergeSlowSubscriberEvicted(t *testing.T) {
	const clusters = 32
	r, err := merge.NewRegistry(merge.Config{Window: 8, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	pool := transport.NewBufferPool(nil)
	var reads atomic.Int64
	gate := make(chan struct{})
	src := gatedSource(pool, &reads, gate)

	fast, err := r.Join("hot-title", clusters, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := r.Join("hot-title", clusters, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	close(gate)

	fastGot := drain(t, fast) // never stalls, so the cohort keeps moving
	wantRange(t, fastGot, 0, clusters)
	if fast.Evicted() {
		t.Fatal("fast subscriber was evicted")
	}

	slowGot := drain(t, slow) // only what was queued before eviction
	if !slow.Evicted() {
		t.Fatal("stalled subscriber was not evicted")
	}
	if len(slowGot) >= clusters {
		t.Fatalf("evicted subscriber received the full stream (%d clusters)", len(slowGot))
	}
	// The queued prefix must still be gapless so the handler can fall back to
	// unicast from exactly len(slowGot).
	wantRange(t, slowGot, 0, len(slowGot))
	waitCohorts(t, r, 0)
}

func TestMergeSourceFailureEvictsCohort(t *testing.T) {
	const clusters, failAt = 32, 7
	mreg := metrics.NewRegistry()
	r, err := merge.NewRegistry(merge.Config{Window: 8, Metrics: mreg})
	if err != nil {
		t.Fatal(err)
	}
	pool := transport.NewBufferPool(nil)
	var reads atomic.Int64
	inner := gatedSource(pool, &reads, nil)
	src := func(index int) (*transport.Frame, transport.ClusterPayload, error) {
		if index == failAt {
			return nil, transport.ClusterPayload{}, errors.New("disk gone")
		}
		return inner(index)
	}

	a, err := r.Join("hot-title", clusters, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Join("hot-title", clusters, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	aGot, bGot := drain(t, a), drain(t, b)
	if !a.Evicted() || !b.Evicted() {
		t.Fatalf("Evicted() = %v/%v after source failure, want true/true", a.Evicted(), b.Evicted())
	}
	// Whatever arrived is a gapless prefix, so both handlers can resume
	// privately — with replica retry — from their next index.
	wantRange(t, aGot, 0, len(aGot))
	wantRange(t, bGot, 0, len(bGot))
	if len(aGot) > failAt || len(bGot) > failAt {
		t.Fatalf("received past the failed cluster: %d/%d clusters", len(aGot), len(bGot))
	}
	waitCohorts(t, r, 0)
	if got := mreg.Snapshot().Counters["merge.evictions"]; got != 2 {
		t.Fatalf("merge.evictions = %d, want 2", got)
	}
}

func TestMergeLeaveReleasesQueuedFrames(t *testing.T) {
	const clusters = 32
	preg := metrics.NewRegistry()
	pool := transport.NewBufferPool(preg)
	r, err := merge.NewRegistry(merge.Config{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	src := gatedSource(pool, &reads, nil)

	stay, err := r.Join("hot-title", clusters, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	leaver, err := r.Join("hot-title", clusters, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	if item, ok := leaver.Recv(); ok {
		item.Frame.Release()
	}
	leaver.Leave()
	leaver.Leave() // must be safe to repeat
	wantRange(t, drain(t, stay), 0, clusters)
	waitCohorts(t, r, 0)

	// Every leased buffer must be back in the pool: the leaver's queued
	// frames were released by Leave, everything else by the consumers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		returns := preg.Snapshot().Counters["transport.pool_returns"]
		if returns == reads.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool got back %d buffers for %d reads — leaked frames", returns, reads.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMergeJoinValidation(t *testing.T) {
	r, err := merge.NewRegistry(merge.Config{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	src := gatedSource(transport.NewBufferPool(nil), new(atomic.Int64), nil)
	for name, join := range map[string]func() (*merge.Sub, error){
		"zero clusters":  func() (*merge.Sub, error) { return r.Join("t", 0, 0, src) },
		"negative start": func() (*merge.Sub, error) { return r.Join("t", 8, -1, src) },
		"start at end":   func() (*merge.Sub, error) { return r.Join("t", 8, 8, src) },
		"nil source":     func() (*merge.Sub, error) { return r.Join("t", 8, 0, nil) },
	} {
		if _, err := join(); err == nil {
			t.Errorf("%s: Join accepted invalid arguments", name)
		}
	}
	if _, err := merge.NewRegistry(merge.Config{Window: 0}); err == nil {
		t.Error("NewRegistry accepted a zero window")
	}
	if _, err := merge.NewRegistry(merge.Config{Window: 4, QueueDepth: -1}); err == nil {
		t.Error("NewRegistry accepted a negative queue depth")
	}
}

// TestMergeConcurrentChurn hammers one registry with joins, normal drains,
// early leaves, and stalled subscribers across several titles. Run under
// -race it is the cohort lifecycle's data-race check; the pool-returns
// accounting at the end catches leaked frame references.
func TestMergeConcurrentChurn(t *testing.T) {
	const workers, rounds, clusters = 16, 8, 24
	preg := metrics.NewRegistry()
	pool := transport.NewBufferPool(preg)
	r, err := merge.NewRegistry(merge.Config{Window: clusters, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	src := gatedSource(pool, &reads, nil)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				title := fmt.Sprintf("title-%d", rng.Intn(3))
				s, err := r.Join(title, clusters, rng.Intn(clusters), src)
				if err != nil {
					t.Error(err)
					return
				}
				switch rng.Intn(3) {
				case 0: // drain to completion (or eviction)
					for {
						item, ok := s.Recv()
						if !ok {
							break
						}
						item.Frame.Release()
					}
				case 1: // leave after a few clusters
					for j := 0; j < rng.Intn(4); j++ {
						item, ok := s.Recv()
						if !ok {
							break
						}
						item.Frame.Release()
					}
					s.Leave()
				case 2: // stall until evicted, then release the backlog
					for {
						item, ok := s.Recv()
						if !ok {
							break
						}
						item.Frame.Release()
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
				}
			}
		}()
	}
	wg.Wait()
	waitCohorts(t, r, 0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		returns := preg.Snapshot().Counters["transport.pool_returns"]
		if returns == reads.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool got back %d buffers for %d reads — leaked frames", returns, reads.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkMergeFanout measures the broadcast path: one pooled read per
// cluster fanned out to eight draining subscribers. CI runs it as a smoke
// test against the committed BENCH_merge.json baseline.
func BenchmarkMergeFanout(b *testing.B) {
	const watchers = 8
	clusters := b.N
	if clusters < 1 {
		clusters = 1
	}
	pool := transport.NewBufferPool(nil)
	r, err := merge.NewRegistry(merge.Config{Window: 8, QueueDepth: 64})
	if err != nil {
		b.Fatal(err)
	}
	var reads atomic.Int64
	gate := make(chan struct{})
	src := gatedSource(pool, &reads, gate)

	subs := make([]*merge.Sub, watchers)
	for i := range subs {
		if subs[i], err = r.Join("bench-title", clusters, 0, src); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(watchers) * clusterBytes)
	b.ResetTimer()
	close(gate)
	var wg sync.WaitGroup
	for _, s := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				item, ok := s.Recv()
				if !ok {
					return
				}
				item.Frame.Release()
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if got := reads.Load(); got != int64(clusters) {
		b.Fatalf("source reads = %d, want %d", got, clusters)
	}
}

// TestMergeHoldDownBatchesJoiners covers the aggregation hold-down: joiners
// arriving while a held cohort's pump has not yet read all attach at the base
// position with zero patch clusters, so one source stream serves everyone —
// the relay-cohort batching path.
func TestMergeHoldDownBatchesJoiners(t *testing.T) {
	const clusters = 16
	pool := transport.NewBufferPool(nil)
	r, err := merge.NewRegistry(merge.Config{Window: clusters})
	if err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	src := gatedSource(pool, &reads, nil)
	lead, err := r.JoinSourceHold("hot-title", clusters, 0, src, nil, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !lead.Created() {
		t.Fatal("first join did not create the cohort")
	}
	const followers = 4
	subs := make([]*merge.Sub, followers)
	for i := range subs {
		s, err := r.Join("hot-title", clusters, 0, src)
		if err != nil {
			t.Fatal(err)
		}
		if s.Created() {
			t.Fatalf("follower %d opened a second cohort during the hold", i)
		}
		if s.Start() != 0 {
			t.Fatalf("follower %d attached at %d, want 0 (no patch inside the hold)", i, s.Start())
		}
		subs[i] = s
	}
	var wg sync.WaitGroup
	for _, s := range append(subs, lead) {
		wg.Add(1)
		go func(s *merge.Sub) {
			defer wg.Done()
			wantRange(t, drain(t, s), 0, clusters)
		}(s)
	}
	wg.Wait()
	if got := reads.Load(); got != clusters {
		t.Fatalf("source reads = %d, want %d (one shared stream)", got, clusters)
	}
}

// signalSource wraps a source so every read announces its index on reads
// before it proceeds, letting a test see that the pump has started without
// measuring time.
func signalSource(inner merge.Source, reads chan<- int) merge.Source {
	return func(index int) (*transport.Frame, transport.ClusterPayload, error) {
		reads <- index
		return inner(index)
	}
}

// soloCohort runs one held cohort of title with a single subscriber to
// completion, leaving a solo verdict for the title.
func soloCohort(t *testing.T, r *merge.Registry, title string, clusters int, src merge.Source) {
	t.Helper()
	s, err := r.JoinSourceHold(title, clusters, 0, src, nil, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	wantRange(t, drain(t, s), 0, clusters)
	waitCohorts(t, r, 0)
}

func holdCounts(r *metrics.Registry) (holds, skipped int64) {
	snap := r.Snapshot()
	return snap.Counters["merge.holds"], snap.Counters["merge.holds_skipped"]
}

// TestMergeSoloCohortSkipsNextHold covers the solo rule: after a held cohort
// ends with one subscriber, the title's next held join reads at once — here
// under an hour-long hold, so only a skipped hold lets the first read land —
// and a follower arriving after that read still shares the stream. That
// cohort ends shared, so the one after it holds again.
func TestMergeSoloCohortSkipsNextHold(t *testing.T) {
	const clusters = 8
	mreg := metrics.NewRegistry()
	r, err := merge.NewRegistry(merge.Config{Window: clusters, Metrics: mreg})
	if err != nil {
		t.Fatal(err)
	}
	pool := transport.NewBufferPool(nil)
	var reads atomic.Int64
	soloCohort(t, r, "hot-title", clusters, gatedSource(pool, &reads, nil))
	if holds, skipped := holdCounts(mreg); holds != 1 || skipped != 0 {
		t.Fatalf("first held cohort: holds/skipped = %d/%d, want 1/0", holds, skipped)
	}

	gate := make(chan struct{})
	started := make(chan int, clusters)
	src := signalSource(gatedSource(pool, &reads, gate), started)
	lead, err := r.JoinSourceHold("hot-title", clusters, 0, src, nil, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case idx := <-started:
		if idx != 0 {
			t.Fatalf("first read of the unheld cohort is cluster %d, want 0", idx)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cohort after a solo cohort is still holding (no read before any follower)")
	}
	if holds, skipped := holdCounts(mreg); holds != 1 || skipped != 1 {
		t.Fatalf("after a solo cohort: holds/skipped = %d/%d, want 1/1", holds, skipped)
	}
	follower, err := r.Join("hot-title", clusters, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	if follower.CohortID() != lead.CohortID() {
		t.Fatal("follower opened a second cohort while the first was on cluster 0")
	}
	close(gate)
	var wg sync.WaitGroup
	for _, s := range []*merge.Sub{lead, follower} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wantRange(t, drain(t, s), 0, clusters)
		}()
	}
	wg.Wait()
	waitCohorts(t, r, 0)

	// The last held cohort was shared: batching paid, so the next one holds.
	soloCohort(t, r, "hot-title", clusters, gatedSource(pool, &reads, nil))
	if holds, skipped := holdCounts(mreg); holds != 2 || skipped != 1 {
		t.Fatalf("after a shared cohort: holds/skipped = %d/%d, want 2/1", holds, skipped)
	}
}

// TestMergeSoloVerdictIsPerTitle checks that one title's solo verdict does
// not skip another title's hold, and that cohorts created without a hold
// leave no verdict at all.
func TestMergeSoloVerdictIsPerTitle(t *testing.T) {
	const clusters = 4
	mreg := metrics.NewRegistry()
	r, err := merge.NewRegistry(merge.Config{Window: clusters, Metrics: mreg})
	if err != nil {
		t.Fatal(err)
	}
	pool := transport.NewBufferPool(nil)
	var reads atomic.Int64
	src := gatedSource(pool, &reads, nil)
	soloCohort(t, r, "title-a", clusters, src)

	// A solo cohort with no hold on title-b: not a relay cohort, no verdict.
	s, err := r.Join("title-b", clusters, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	wantRange(t, drain(t, s), 0, clusters)
	waitCohorts(t, r, 0)

	soloCohort(t, r, "title-b", clusters, src)
	if holds, skipped := holdCounts(mreg); holds != 2 || skipped != 0 {
		t.Fatalf("title-b after title-a's solo cohort: holds/skipped = %d/%d, want 2/0", holds, skipped)
	}
	soloCohort(t, r, "title-a", clusters, src)
	if holds, skipped := holdCounts(mreg); holds != 2 || skipped != 1 {
		t.Fatalf("title-a's second cohort: holds/skipped = %d/%d, want 2/1", holds, skipped)
	}
}

// TestMergeZeroHoldStartsImmediately pins the hold-down's no-op contract: a
// zero hold must not delay the pump (Join always passes zero).
func TestMergeZeroHoldStartsImmediately(t *testing.T) {
	const clusters = 4
	pool := transport.NewBufferPool(nil)
	r, err := merge.NewRegistry(merge.Config{Window: clusters})
	if err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	s, err := r.JoinSourceHold("hot-title", clusters, 0, gatedSource(pool, &reads, nil), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	wantRange(t, drain(t, s), 0, clusters)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("zero-hold stream took %v", d)
	}
}
