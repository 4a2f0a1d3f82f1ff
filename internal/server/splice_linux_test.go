//go:build linux

package server_test

import (
	"os"
	"strings"
	"testing"
	"time"
)

// openFDs counts this process's open descriptors, and how many of them are
// pipes.
func openFDs(t *testing.T) (all, pipes int) {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, e := range entries {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(target, "pipe:") {
			pipes++
		}
	}
	return len(entries), pipes
}

// TestPipeDescriptorsReleasedOnClose: remote watches that include hedged
// fetches open pipes at the home, two descriptors each; once the fleet is
// closed the process is back at its descriptor baseline, with exactly the
// pipes it had before.
func TestPipeDescriptorsReleasedOnClose(t *testing.T) {
	lc, title := hedgedCluster(t)
	baseAll, basePipes := openFDs(t)
	for range 2 {
		watchHedged(t, lc, title)
	}
	if _, pipes := openFDs(t); pipes == basePipes {
		t.Fatal("the watches opened no pipe")
	}
	for _, srv := range lc.servers {
		srv.ClosePeerConns()
	}
	for _, srv := range lc.servers {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var all, pipes int
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		all, pipes = openFDs(t)
		if pipes == basePipes && all <= baseAll {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d descriptors (%d pipes), baseline %d (%d pipes)", all, pipes, baseAll, basePipes)
		}
	}
}
