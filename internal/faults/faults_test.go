package faults

import (
	"errors"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"dvod/internal/clock"
	"dvod/internal/disk"
	"dvod/internal/topology"
)

func mustInjector(t *testing.T, plan Plan, seed int64, clk clock.Clock) *Injector {
	t.Helper()
	inj, err := NewInjector(plan, seed, clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestPlanValidateRejectsMalformedEvents(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
	}{
		{"negative offset", Plan{Events: []Event{{At: -time.Second, For: time.Second, Kind: KindPeerDown, Node: "A"}}}},
		{"zero duration", Plan{Events: []Event{{At: 0, For: 0, Kind: KindPeerDown, Node: "A"}}}},
		{"link fault without link", Plan{Events: []Event{{At: 0, For: time.Second, Kind: KindLinkDown}}}},
		{"peer fault without node", Plan{Events: []Event{{At: 0, For: time.Second, Kind: KindPeerStall}}}},
		{"slow disk without delay", Plan{Events: []Event{{At: 0, For: time.Second, Kind: KindDiskSlow, Node: "A"}}}},
		{"unknown kind", Plan{Events: []Event{{At: 0, For: time.Second, Kind: "volcano"}}}},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	var good Plan
	good.FlapLink(0, time.Second, "A<->B").
		FailPeer(time.Second, time.Second, "A").
		SlowDisk(0, time.Second, "B", time.Millisecond)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// TestEventSequenceDeterministic pins the reproducibility contract: the
// activation/deactivation sequence is a pure function of the plan — same plan
// (any seed) yields the identical ordered log, with ties broken by
// activation-before-deactivation then plan position.
func TestEventSequenceDeterministic(t *testing.T) {
	var plan Plan
	plan.FailPeer(20*time.Millisecond, 10*time.Millisecond, "B").
		FlapLink(10*time.Millisecond, 20*time.Millisecond, "A<->B"). // deactivates exactly as the next activates
		StallPeer(30*time.Millisecond, 5*time.Millisecond, "C").
		SlowDisk(0, 30*time.Millisecond, "B", time.Millisecond)

	a := mustInjector(t, plan, 1, clock.Wall{}).Events()
	b := mustInjector(t, plan, 99, clock.Wall{}).Events()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("event sequences differ across seeds:\n%v\n%v", a, b)
	}
	if len(a) != 2*len(plan.Events) {
		t.Fatalf("want %d entries, got %d", 2*len(plan.Events), len(a))
	}
	for i, e := range a {
		if e.Seq != i {
			t.Fatalf("entry %d has Seq %d", i, e.Seq)
		}
		if i > 0 && e.At < a[i-1].At {
			t.Fatalf("entries out of order at %d: %v after %v", i, e.At, a[i-1].At)
		}
	}
	// At the 30ms tie, the stall activation must precede the flap and drag
	// deactivations.
	for i, e := range a {
		if e.At != 30*time.Millisecond {
			continue
		}
		if !e.Active {
			t.Fatalf("at 30ms, deactivation %v precedes the activation (index %d)", e, i)
		}
		break
	}
}

func TestDialErrorWindows(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	link := topology.MakeLinkID("A", "B")
	var plan Plan
	plan.FailPeer(10*time.Millisecond, 10*time.Millisecond, "B").
		FlapLink(40*time.Millisecond, 10*time.Millisecond, link)
	inj := mustInjector(t, plan, 1, vc)

	// Before Start nothing is injected, even inside a window's offsets.
	if err := inj.DialError("B", nil); err != nil {
		t.Fatalf("pre-start dial error: %v", err)
	}
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	defer inj.Stop()

	if err := inj.DialError("B", nil); err != nil {
		t.Fatalf("t=0 dial error: %v", err)
	}
	vc.Advance(15 * time.Millisecond)
	err := inj.DialError("B", nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("t=15ms: want injected fault, got %v", err)
	}
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Kind != KindPeerDown {
		t.Fatalf("t=15ms: want peer.down FaultError, got %#v", err)
	}
	// Another peer on another route is unaffected.
	if err := inj.DialError("C", nil); err != nil {
		t.Fatalf("t=15ms unrelated peer: %v", err)
	}
	vc.Advance(10 * time.Millisecond) // t=25ms: window closed
	if err := inj.DialError("B", nil); err != nil {
		t.Fatalf("t=25ms dial error: %v", err)
	}
	vc.Advance(20 * time.Millisecond) // t=45ms: link down
	if err := inj.DialError("B", []topology.LinkID{link}); !errors.Is(err, ErrInjected) {
		t.Fatalf("t=45ms via down link: want injected fault, got %v", err)
	}
	if err := inj.DialError("B", []topology.LinkID{topology.MakeLinkID("A", "C")}); err != nil {
		t.Fatalf("t=45ms via other link: %v", err)
	}
	if got := inj.InjectedTotal(); got != 2 {
		t.Fatalf("injected total = %d, want 2", got)
	}

	inj.Stop()
	if err := inj.DialError("B", []topology.LinkID{link}); err != nil {
		t.Fatalf("post-stop dial error: %v", err)
	}
}

// TestInjectorDial: a nil injector dials plainly. An armed one refuses a
// route under an active fault without connecting, and gates what it does
// dial, so a fault that activates later cuts the live connection, which
// then leaves the cut set.
func TestInjectorDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	addr := ln.Addr().String()

	var none *Injector
	c, err := none.Dial("B", nil, addr)
	if err != nil {
		t.Fatalf("nil injector: %v", err)
	}
	_ = c.Close()
	_ = (<-accepted).Close()

	vc := clock.NewVirtual(time.Unix(0, 0))
	var plan Plan
	plan.FailPeer(10*time.Millisecond, 10*time.Millisecond, "B")
	inj := mustInjector(t, plan, 1, vc)
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	defer inj.Stop()
	live, err := inj.Dial("B", nil, addr)
	if err != nil {
		t.Fatalf("t=0 dial: %v", err)
	}
	defer live.Close()
	peer := <-accepted
	defer peer.Close()
	readErr := make(chan error, 1)
	go func() {
		_, err := live.ReadMessage()
		readErr <- err
	}()

	vc.Advance(15 * time.Millisecond) // peer.down is active
	if _, err := inj.Dial("B", nil, addr); !errors.Is(err, ErrInjected) {
		t.Fatalf("t=15ms: want injected refusal, got %v", err)
	}
	select {
	case <-accepted:
		t.Fatal("a refused dial connected")
	case <-time.After(50 * time.Millisecond):
	}
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("read on a cut stream succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the dialed stream was not cut when peer.down activated")
	}
}

func TestReadInterceptorShortReadSeedPinned(t *testing.T) {
	var plan Plan
	plan.ShortReadDisk(0, time.Minute, "A")
	fractions := func(seed int64) []float64 {
		vc := clock.NewVirtual(time.Unix(0, 0))
		inj := mustInjector(t, plan, seed, vc)
		if err := inj.Start(); err != nil {
			t.Fatal(err)
		}
		defer inj.Stop()
		vc.Advance(time.Millisecond)
		hook := inj.ReadInterceptor("A")
		out := make([]float64, 4)
		for i := range out {
			f := hook(disk.BlockID{})
			if f.ShortFraction <= 0 || f.ShortFraction >= 1 {
				t.Fatalf("short fraction %v outside (0, 1)", f.ShortFraction)
			}
			out[i] = f.ShortFraction
		}
		// The other node's array is untouched.
		if f := inj.ReadInterceptor("B")(disk.BlockID{}); f != (disk.ReadFault{}) {
			t.Fatalf("unrelated node faulted: %+v", f)
		}
		return out
	}
	if a, b := fractions(7), fractions(7); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different truncation points: %v vs %v", a, b)
	}
}

func TestReadInterceptorSlowDiskDelays(t *testing.T) {
	var plan Plan
	plan.SlowDisk(0, time.Minute, "A", 5*time.Millisecond)
	inj := mustInjector(t, plan, 1, clock.Wall{})
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	defer inj.Stop()
	hook := inj.ReadInterceptor("A")
	began := time.Now()
	if f := hook(disk.BlockID{}); f != (disk.ReadFault{}) {
		t.Fatalf("slow disk should delay, not fail: %+v", f)
	}
	if took := time.Since(began); took < 5*time.Millisecond {
		t.Fatalf("dragged read returned after %v, want >= 5ms", took)
	}
	if inj.InjectedTotal() == 0 {
		t.Fatal("drag did not count as injected")
	}
}

func TestInjectorStartTwiceFails(t *testing.T) {
	inj := mustInjector(t, Plan{}, 1, clock.Wall{})
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	defer inj.Stop()
	if err := inj.Start(); err == nil {
		t.Fatal("second Start succeeded")
	}
}

// TestArmedDialKeepsDeadlines: a deadline set on a connection an armed
// injector dialed bounds its reads just as on a plain dial, so a peer that
// accepted and went silent cannot hang a membership exchange or a probe.
func TestArmedDialKeepsDeadlines(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // accept and stay silent
		}
	}()
	var plan Plan
	plan.FailPeer(time.Hour, time.Minute, "B") // armed, never active here
	inj := mustInjector(t, plan, 1, clock.Wall{})
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	defer inj.Stop()
	for _, arm := range []struct {
		name string
		inj  *Injector
	}{{"unarmed", nil}, {"armed", inj}} {
		c, err := arm.inj.Dial("B", nil, ln.Addr().String())
		if err != nil {
			t.Fatalf("%s dial: %v", arm.name, err)
		}
		if err := c.SetDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
			t.Fatalf("%s: SetDeadline: %v", arm.name, err)
		}
		read := make(chan error, 1)
		go func() {
			_, err := c.ReadMessage()
			read <- err
		}()
		select {
		case err := <-read:
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("%s: read past the deadline returned %v, want a deadline error", arm.name, err)
			}
		case <-time.After(10 * time.Second):
			_ = c.Close()
			t.Fatalf("%s: read still blocked 10 s past a 50 ms deadline", arm.name)
		}
		_ = c.Close()
	}
}
