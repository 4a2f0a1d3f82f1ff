package client_test

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvod/internal/client"
	"dvod/internal/clock"
	"dvod/internal/faults"
	"dvod/internal/grnet"
	"dvod/internal/server"
	"dvod/internal/transport"
)

// tap is a counting dialer for a player: it records every connection the
// player opens, how many writes each carried, the largest buffer read into,
// the receive buffer the player asked for, whether it was closed, and
// whether two goroutines ever used one at the same time.
type tap struct {
	mu      sync.Mutex
	streams []*tapStream
}

type tapStream struct {
	rw     io.ReadWriteCloser
	writes atomic.Int64
	// maxReadCap is the largest capacity of a buffer passed to Read.
	maxReadCap atomic.Int64
	rcvbuf     atomic.Int64
	closed     atomic.Bool
	busy       atomic.Int32
	overlap    atomic.Bool
}

func (t *tap) dial(addr string) (*transport.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &tapStream{rw: nc}
	t.mu.Lock()
	t.streams = append(t.streams, s)
	t.mu.Unlock()
	return transport.NewConn(s), nil
}

// dials reports how many connections the player has opened.
func (t *tap) dials() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.streams)
}

func (t *tap) stream(i int) *tapStream {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.streams[i]
}

// enter marks the stream in use until the returned function runs; a second
// user arriving meanwhile is an overlap.
func (s *tapStream) enter() func() {
	if s.busy.Add(1) > 1 {
		s.overlap.Store(true)
	}
	return func() { s.busy.Add(-1) }
}

func (s *tapStream) Read(p []byte) (int, error) {
	defer s.enter()()
	if c := int64(cap(p)); c > s.maxReadCap.Load() {
		s.maxReadCap.Store(c)
	}
	return s.rw.Read(p)
}

func (s *tapStream) Write(p []byte) (int, error) {
	defer s.enter()()
	s.writes.Add(1)
	return s.rw.Write(p)
}

func (s *tapStream) Close() error {
	s.closed.Store(true)
	return s.rw.Close()
}

func (s *tapStream) SetReadBuffer(bytes int) error {
	s.rcvbuf.Store(int64(bytes))
	return s.rw.(*net.TCPConn).SetReadBuffer(bytes)
}

// watchVerified watches title from startCluster and fails the test unless
// the delivery completed and verified.
func watchVerified(t *testing.T, p *client.Player, startCluster int) client.PlaybackStats {
	t.Helper()
	stats, err := p.WatchFrom("feature", startCluster)
	if err != nil {
		t.Fatalf("watch from %d: %v", startCluster, err)
	}
	if !stats.Verified || !stats.BinaryFraming {
		t.Fatalf("watch from %d: verified=%v binary=%v", startCluster, stats.Verified, stats.BinaryFraming)
	}
	return stats
}

// TestPlayerReusesHomeConnection: a player dials its home once and runs every
// later exchange — watches, seeks, title lists, holder queries — on that
// connection.
func TestPlayerReusesHomeConnection(t *testing.T) {
	book, _ := miniCluster(t)
	var tp tap
	p, err := client.NewPlayer(grnet.Patra, book, client.WithDialer(tp.dial))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := range 5 {
		watchVerified(t, p, i)
	}
	if n := tp.dials(); n != 1 {
		t.Fatalf("five sequential watches dialed %d times, want 1", n)
	}
	// A fixed receive buffer, so a warm connection's window does not let the
	// server race megabytes ahead of the first cluster.
	if tp.stream(0).rcvbuf.Load() == 0 {
		t.Fatal("the player left its connection's receive buffer to autotuning")
	}

	var mixed tap
	q, err := client.NewPlayer(grnet.Patra, book, client.WithDialer(mixed.dial))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.ListTitles(); err != nil {
		t.Fatal(err)
	}
	watchVerified(t, q, 0)
	if _, err := q.Holders("feature"); err != nil {
		t.Fatal(err)
	}
	watchVerified(t, q, 3)
	if _, err := q.ListTitles(); err != nil {
		t.Fatal(err)
	}
	if n := mixed.dials(); n != 1 {
		t.Fatalf("titles, watch, holders, seek, titles dialed %d times, want 1", n)
	}
}

// TestPlayerRedialsAfterServerIdleTimeout: the home hangs up on the idle
// pooled connection. The next watch tries it, finds it dead before any
// reply, and redials inside the same attempt — no resume, no retry counted.
func TestPlayerRedialsAfterServerIdleTimeout(t *testing.T) {
	const idle = 50 * time.Millisecond
	book, _ := miniCluster(t, func(c *server.Config) { c.IdleTimeout = idle })
	var tp tap
	p, err := client.NewPlayer(grnet.Patra, book, client.WithDialer(tp.dial), client.WithResume())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	watchVerified(t, p, 0)
	first := tp.stream(0)
	writes := first.writes.Load()
	time.Sleep(4 * idle)
	stats := watchVerified(t, p, 0)
	if stats.Retries != 0 {
		t.Fatalf("stale pooled connection cost %d resume attempts, want 0", stats.Retries)
	}
	if first.writes.Load() == writes {
		t.Fatal("the second watch never tried the pooled connection")
	}
	if !first.closed.Load() {
		t.Fatal("the dead pooled connection was not closed")
	}
	if n := tp.dials(); n != 2 {
		t.Fatalf("dials = %d, want 2 (the first, and the redial after the hang-up)", n)
	}
}

// TestPlayerPoolsBothRedirectHops: the home bounces the watch to the holder.
// Both connections go back to the pool — the home's after the redirect, the
// holder's after watch.done — so a second watch of the title dials nothing.
func TestPlayerPoolsBothRedirectHops(t *testing.T) {
	book, directors := redirectCluster(t)
	directors[grnet.Patra].set(redirectTo(book, grnet.Xanthi))
	var tp tap
	p, err := client.NewPlayer(grnet.Patra, book, client.WithDialer(tp.dial))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := range 2 {
		stats := watchVerified(t, p, 0)
		if stats.Redirects != 1 || stats.RedirectPath[0] != grnet.Xanthi {
			t.Fatalf("watch %d: redirects = %d via %v, want 1 via [Xanthi]", i, stats.Redirects, stats.RedirectPath)
		}
	}
	if n := tp.dials(); n != 2 {
		t.Fatalf("two redirected watches dialed %d times, want 2 (home and holder, once each)", n)
	}
}

// TestPlayerSharedAcrossGoroutines: eight goroutines drive one player. Every
// watch verifies, and no connection is ever in use by two of them at once.
func TestPlayerSharedAcrossGoroutines(t *testing.T) {
	book, _ := miniCluster(t)
	var tp tap
	p, err := client.NewPlayer(grnet.Patra, book, client.WithDialer(tp.dial))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const goroutines, watches = 8, 5
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range watches {
				stats, err := p.WatchFrom("feature", (g+i)%6)
				if err != nil {
					t.Errorf("goroutine %d watch %d: %v", g, i, err)
					return
				}
				if !stats.Verified {
					t.Errorf("goroutine %d watch %d: not verified", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	n := tp.dials()
	for i := range n {
		if tp.stream(i).overlap.Load() {
			t.Fatalf("connection %d was used by two goroutines at once", i)
		}
	}
	if n >= goroutines*watches {
		t.Fatalf("%d watches took %d dials: no connection was reused", goroutines*watches, n)
	}
}

// TestPlayerIdleConnCutByPeerDown: a fault plan takes the home down while
// the player's connection sits idle in its pool. The injector severs the
// pooled stream, the next watch finds it dead, and its redial meets the
// injector's refusal — the watch fails exactly as a fresh dial would, and a
// resuming player spends its retry budget the same way. Once the window
// closes, both players watch again on fresh connections.
func TestPlayerIdleConnCutByPeerDown(t *testing.T) {
	var plan faults.Plan
	plan.FailPeer(time.Second, time.Second, grnet.Patra)
	vclk := clock.NewVirtual(time.Date(2000, time.April, 10, 8, 0, 0, 0, time.UTC))
	inj, err := faults.NewInjector(plan, 7, vclk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	defer inj.Stop()
	// What the service's WatchDialer does: dial through the injector.
	dial := func(addr string) (*transport.Conn, error) {
		return inj.Dial(grnet.Patra, nil, addr)
	}
	book, _ := miniCluster(t)
	plain, err := client.NewPlayer(grnet.Patra, book, client.WithDialer(dial))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	resuming, err := client.NewPlayer(grnet.Patra, book, client.WithDialer(dial), client.WithResume())
	if err != nil {
		t.Fatal(err)
	}
	defer resuming.Close()
	watchVerified(t, plain, 0)
	watchVerified(t, resuming, 0)

	vclk.Advance(1500 * time.Millisecond)
	for deadline := time.Now().Add(5 * time.Second); inj.InjectedTotal() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("the injector cut %d idle pooled connections, want 2", inj.InjectedTotal())
		}
		time.Sleep(time.Millisecond)
	}
	stats, err := plain.Watch("feature")
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("watch inside the down window: err = %v, want the injected refusal", err)
	}
	if stats.Retries != 0 {
		t.Fatalf("plain player resumed %d times", stats.Retries)
	}
	stats, err = resuming.Watch("feature")
	if !errors.Is(err, faults.ErrInjected) || !strings.Contains(err.Error(), "resume budget exhausted") {
		t.Fatalf("resuming watch inside the down window: err = %v, want the budget spent on refusals", err)
	}
	if stats.Retries == 0 {
		t.Fatal("resuming player never resumed")
	}

	vclk.Advance(time.Second)
	watchVerified(t, plain, 0)
	if stats := watchVerified(t, resuming, 0); stats.Retries != 0 {
		t.Fatalf("watch after the window resumed %d times", stats.Retries)
	}
}

// TestPlayerCloseClosesIdleConnections: Close hangs up the pooled connection,
// is idempotent, and leaves the player usable — later watches dial their own
// connection and close it when done.
func TestPlayerCloseClosesIdleConnections(t *testing.T) {
	book, _ := miniCluster(t)
	var tp tap
	p, err := client.NewPlayer(grnet.Patra, book, client.WithDialer(tp.dial))
	if err != nil {
		t.Fatal(err)
	}
	watchVerified(t, p, 0)
	if tp.stream(0).closed.Load() {
		t.Fatal("the connection was closed after a clean watch")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if !tp.stream(0).closed.Load() {
		t.Fatal("Close left the idle connection open")
	}
	watchVerified(t, p, 2)
	if n := tp.dials(); n != 2 {
		t.Fatalf("dials = %d, want 2", n)
	}
	if !tp.stream(1).closed.Load() {
		t.Fatal("a watch after Close left its connection open")
	}
}
