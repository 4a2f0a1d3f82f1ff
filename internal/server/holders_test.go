package server_test

import (
	"testing"

	"dvod/internal/client"
	"dvod/internal/grnet"
	"dvod/internal/media"
)

func TestHoldersQuery(t *testing.T) {
	lc := newCluster(t, nil)
	title := media.Title{Name: "multi", SizeBytes: 4 * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Thessaloniki, grnet.Xanthi)
	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	info, err := p.Holders("multi")
	if err != nil {
		t.Fatal(err)
	}
	if info.NumClusters != 4 || info.SizeBytes != title.SizeBytes {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Holders) != 2 || info.Holders[0] != grnet.Thessaloniki {
		t.Fatalf("holders = %v", info.Holders)
	}
	if _, err := p.Holders("ghost"); err == nil {
		t.Fatal("unknown title accepted")
	}
}
