package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dvod"
	"dvod/internal/admission"
	"dvod/internal/client"
)

// setupRepeats is how many times one run builds the service and replays the
// verified warm-up; setup_s is the median, the window runs on the last build.
const setupRepeats = 3

// deployment is one built, started, preloaded and warmed service.
type deployment struct {
	w      *workload
	svc    *dvod.Service
	dir    string
	titles []dvod.Title
	list   []request
	// players[c][verified][class] is client c's player; a Player carries its
	// class and its checker, so each client keeps one per combination.
	players [numClients]map[playerKey]*dvod.Player
}

type playerKey struct {
	verify bool
	class  admission.Class
}

func (d *deployment) player(c int, verify bool, class admission.Class) (*dvod.Player, error) {
	key := playerKey{verify, class}
	if p := d.players[c][key]; p != nil {
		return p, nil
	}
	opts := []client.Option{client.WithClass(class)}
	if !verify {
		opts = append(opts, client.WithoutVerification())
	}
	if d.w.resume {
		opts = append(opts, client.WithResume())
	}
	p, err := d.svc.Player(homeNode, opts...)
	if err != nil {
		return nil, err
	}
	d.players[c][key] = p
	return p, nil
}

func (d *deployment) close() error {
	err := d.svc.Close()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// deploy builds the workload's service under a private directory of root,
// preloads its titles, settles it and replays the verified warm-up. The time
// it takes is one setup_s sample.
func deploy(w *workload, list []request, root string) (*deployment, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	d := &deployment{w: w, dir: dir, titles: w.titles(), list: list}
	for c := range d.players {
		d.players[c] = make(map[playerKey]*dvod.Player)
	}
	d.svc, err = dvod.New(w.topology(), w.options(dir)...)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	if err := d.start(); err != nil {
		_ = d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) start() error {
	if err := d.svc.Start(); err != nil {
		return err
	}
	for _, t := range d.titles {
		if err := d.svc.AddTitle(t); err != nil {
			return err
		}
		for _, node := range d.w.origins {
			if err := d.svc.Preload(node, t.Name); err != nil {
				return fmt.Errorf("preload %s on %s: %w", t.Name, node, err)
			}
		}
	}
	if d.w.settle != nil {
		if err := d.w.settle(d.svc, d.titles); err != nil {
			return fmt.Errorf("settle: %w", err)
		}
	}
	warm := d.drive(driveConfig{from: 0, entries: d.w.warm, verify: true})
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d watches failed: %s", warm.failed, warm.attempted, warm.firstFailure)
	}
	return nil
}

// driveConfig selects a slice of the request list and how to run it.
type driveConfig struct {
	// from is the first list index; entries bounds how many are run (0 = until
	// the deadline).
	from    int
	entries int
	// deadline stops handing out entries (zero = run exactly entries).
	deadline time.Time
	verify   bool
	// tracer, when set, records spans for watches that start while it is on.
	tracer *tracer
}

// driveResult is what the harness observed of one driven slice.
type driveResult struct {
	attempted, failed int
	firstFailure      string
	bytes, clusters   int64
	wrongPrefix       int
	stalls, resumes   int
	ttfc, elapsed     []float64 // ms, one per completed watch, ascending
	gapsUS            []float64 // cluster arrival gaps of traced watches
	wall              time.Duration
}

// drive runs list entries on the two closed-loop clients: each client has one
// watch (one connection) in flight at a time and takes its next entry only
// when the previous one completes.
func (d *deployment) drive(cfg driveConfig) driveResult {
	next := d.dispenser(cfg)
	var (
		wg      sync.WaitGroup
		results [numClients]driveResult
	)
	begin := time.Now()
	for c := range numClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[c]
			for {
				idx, ok := next()
				if !ok {
					return
				}
				d.watch(c, idx, cfg, r)
			}
		}()
	}
	wg.Wait()
	total := driveResult{wall: time.Since(begin)}
	for i := range results {
		r := &results[i]
		total.attempted += r.attempted
		total.failed += r.failed
		if total.firstFailure == "" {
			total.firstFailure = r.firstFailure
		}
		total.bytes += r.bytes
		total.clusters += r.clusters
		total.wrongPrefix += r.wrongPrefix
		total.stalls += r.stalls
		total.resumes += r.resumes
		total.ttfc = append(total.ttfc, r.ttfc...)
		total.elapsed = append(total.elapsed, r.elapsed...)
		total.gapsUS = append(total.gapsUS, r.gapsUS...)
	}
	sort.Float64s(total.ttfc)
	sort.Float64s(total.elapsed)
	return total
}

// dispenser returns the function clients call for their next list index. The
// list wraps onto its post-warm-up part if a fast program exhausts it.
func (d *deployment) dispenser(cfg driveConfig) func() (int, bool) {
	var handed atomic.Int64
	take := func() (int, bool) {
		n := int(handed.Add(1) - 1)
		if cfg.entries > 0 && n >= cfg.entries {
			return 0, false
		}
		if !cfg.deadline.IsZero() && !time.Now().Before(cfg.deadline) {
			return 0, false
		}
		idx := cfg.from + n
		if idx >= len(d.list) {
			span := len(d.list) - d.w.warm
			idx = d.w.warm + (idx-d.w.warm)%span
		}
		return idx, true
	}
	if !d.w.lockstep {
		return take
	}
	// Lockstep: both clients run the same entry, started together. The last
	// client to arrive at the barrier draws the round for both.
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		arrived int
		round   int
		idx     int
		ok      bool
	)
	return func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		mine := round
		arrived++
		if arrived == numClients {
			arrived = 0
			idx, ok = take()
			round++
			cond.Broadcast()
		} else {
			for mine == round {
				cond.Wait()
			}
		}
		return idx, ok
	}
}

// watch runs one list entry on client c and checks what came back: error,
// byte count, cluster count, strictly consecutive indices and binary framing
// (plus every byte's content when the player verifies).
func (d *deployment) watch(c, idx int, cfg driveConfig, r *driveResult) {
	req := d.list[idx]
	r.attempted++
	fail := func(format string, args ...any) {
		r.failed++
		if r.firstFailure == "" {
			r.firstFailure = fmt.Sprintf("entry %d (%s from %d): ", idx, req.Title, req.Start) + fmt.Sprintf(format, args...)
		}
	}
	p, err := d.player(c, cfg.verify, req.Class)
	if err != nil {
		fail("player: %v", err)
		return
	}
	traced := cfg.tracer.on()
	begin := time.Now()
	st, err := p.WatchFrom(req.Title, req.Start)
	if err != nil {
		fail("%v", err) // a refused session (client.RejectedError) is a failed watch too
		return
	}
	wantClusters := d.w.clustersPerTitle() - req.Start
	wantBytes := d.w.titleBytes - int64(req.Start)*clusterBytes
	switch {
	case st.BytesReceived != wantBytes:
		fail("received %d bytes, want %d", st.BytesReceived, wantBytes)
		return
	case len(st.Records) != wantClusters:
		fail("received %d clusters, want %d", len(st.Records), wantClusters)
		return
	case !st.BinaryFraming:
		fail("session fell back to JSON framing")
		return
	case cfg.verify && !st.Verified:
		fail("content verification failed")
		return
	}
	for i, rec := range st.Records {
		if rec.Index != req.Start+i {
			fail("cluster %d arrived at position %d", rec.Index, req.Start+i)
			return
		}
	}
	if st.PrefixClusters != d.w.prefixClusters {
		r.wrongPrefix++
	}
	r.bytes += st.BytesReceived
	r.clusters += int64(len(st.Records))
	r.stalls += st.Stalls
	r.resumes += st.Retries
	r.ttfc = append(r.ttfc, ms(st.StartupDelay))
	r.elapsed = append(r.elapsed, ms(st.Elapsed))
	if cfg.tracer != nil {
		cfg.tracer.bytes.Add(st.BytesReceived)
	}
	if traced {
		r.gapsUS = cfg.tracer.watch(idx, c, begin, st, r.gapsUS)
	}
}

// windowResult is one measured window plus the counter deltas around it.
type windowResult struct {
	driveResult
	before, after map[dvod.NodeID]dvod.MetricsSnapshot
	cpuS          float64
	evictions     int64
	mem           [2]runtime.MemStats
	// tracedMiBs and plainMiBs are the goodput of a traced window's tracer-on
	// and tracer-off quarters.
	tracedMiBs, plainMiBs float64
}

func (r *windowResult) delta(node dvod.NodeID, counter string) int64 {
	return r.after[node].Counters[counter] - r.before[node].Counters[counter]
}

func (r *windowResult) homeDelta(counter string) int64 { return r.delta(homeNode, counter) }

func (r *windowResult) sumDelta(counter string) int64 {
	var sum int64
	for node := range r.after {
		sum += r.delta(node, counter)
	}
	return sum
}

// admissionCount sums one of the brokers' per-class counters ("admitted",
// "rejected", ...) over every class and node.
func (r *windowResult) admissionCount(outcome string) int64 {
	var sum int64
	for _, c := range admission.Classes() {
		sum += r.sumDelta("admission." + outcome + "." + string(c))
	}
	return sum
}

// residentAtHome counts the titles the home's DMA currently stores.
func (d *deployment) residentAtHome() (int, error) {
	n := 0
	for _, t := range d.titles {
		holders, err := d.svc.Holders(t.Name)
		if err != nil {
			return 0, err
		}
		for _, h := range holders {
			if h == homeNode {
				n++
			}
		}
	}
	return n, nil
}

// window measures for the given time on the warmed deployment. With a tracer
// the window is cut into off-on-on-off quarters, so the traced and untraced
// halves see the same drift and their goodput difference is the tracing
// overhead.
func (d *deployment) window(seconds float64, tr *tracer) (*windowResult, error) {
	res := &windowResult{}
	residentBefore, err := d.residentAtHome()
	if err != nil {
		return nil, err
	}
	runtime.GC() // every window starts from a collected heap
	span := time.Duration(seconds * float64(time.Second))
	var (
		progress segmentClock
		stop     = make(chan struct{})
		done     = make(chan struct{})
	)
	runtime.ReadMemStats(&res.mem[0])
	res.before = d.svc.Metrics()
	cpu0 := cpuSeconds()
	begin := time.Now()
	if tr != nil {
		go progress.run(tr, begin, span/4, stop, done)
	}
	res.driveResult = d.drive(driveConfig{from: d.w.warm, deadline: begin.Add(span), tracer: tr})
	res.cpuS = cpuSeconds() - cpu0
	res.after = d.svc.Metrics()
	runtime.ReadMemStats(&res.mem[1])
	if tr != nil {
		close(stop)
		<-done
		tr.set(false)
		res.tracedMiBs, res.plainMiBs = progress.goodput()
	}
	residentAfter, err := d.residentAtHome()
	if err != nil {
		return nil, err
	}
	res.evictions = res.homeDelta("server.dma_admissions") - int64(residentAfter-residentBefore)
	return res, nil
}

// verifyAfter runs one more fully verified watch per client once the window
// has closed: the unverified window must not have left the service serving
// wrong bytes.
func (d *deployment) verifyAfter(windowEntries int) driveResult {
	return d.drive(driveConfig{from: d.w.warm + windowEntries, entries: numClients, verify: true})
}

// runWorkload is one benchmark run: setupRepeats deployments (the last one
// kept), the timed window, the closing verified watches and the self-checks.
type runResult struct {
	w          *workload
	setupS     []float64
	window     *windowResult
	after      driveResult
	selfChecks []string
	dep        *deployment
}

func runWorkload(w *workload, seed int64, seconds float64, root string, tr *tracer) (*runResult, error) {
	list := w.list(seed)
	res := &runResult{w: w}
	for i := range setupRepeats {
		begin := time.Now()
		dep, err := deploy(w, list, root)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", w.name, i, err)
		}
		res.setupS = append(res.setupS, time.Since(begin).Seconds())
		if i < setupRepeats-1 {
			if err := dep.close(); err != nil {
				return nil, fmt.Errorf("%s: teardown %d: %w", w.name, i, err)
			}
			// Hand the torn-down service's memory back before the next build,
			// so peak RSS measures one deployment, not the overlap of two.
			debug.FreeOSMemory()
			continue
		}
		res.dep = dep
	}
	win, err := res.dep.window(seconds, tr)
	if err != nil {
		return res, err
	}
	res.window = win
	res.after = res.dep.verifyAfter(win.attempted)
	res.selfChecks = w.check(win)
	if n := win.admissionCount("rejected"); n != 0 {
		res.selfChecks = append(res.selfChecks, fmt.Sprintf("%d admission rejections, want 0", n))
	}
	return res, nil
}

// segmentClock flips the tracer at quarter boundaries of a traced window and
// notes the clients' byte progress at each flip.
type segmentClock struct {
	marks []segmentMark
}

type segmentMark struct {
	at    time.Time
	bytes int64
}

func (s *segmentClock) run(tr *tracer, begin time.Time, quarter time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	s.marks = append(s.marks, segmentMark{begin, tr.bytes.Load()})
	for q := 1; q <= 4; q++ {
		tr.set(q == 2 || q == 3)
		select {
		case <-time.After(time.Until(begin.Add(time.Duration(q) * quarter))):
		case <-stop:
		}
		s.marks = append(s.marks, segmentMark{time.Now(), tr.bytes.Load()})
	}
}

// goodput returns MiB/s over the tracer-on quarters and the tracer-off ones.
func (s *segmentClock) goodput() (traced, plain float64) {
	var onB, offB int64
	var onT, offT time.Duration
	for q := 1; q < len(s.marks); q++ {
		b := s.marks[q].bytes - s.marks[q-1].bytes
		t := s.marks[q].at.Sub(s.marks[q-1].at)
		if q == 2 || q == 3 {
			onB, onT = onB+b, onT+t
		} else {
			offB, offT = offB+b, offT+t
		}
	}
	return mib(onB) / onT.Seconds(), mib(offB) / offT.Seconds()
}
