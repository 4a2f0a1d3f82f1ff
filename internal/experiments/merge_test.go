package experiments

import "testing"

// TestMergeStudySavesOriginReads pins the tentpole's acceptance bar on a
// scaled-down Ext-14: with 8 concurrent watchers of one hot title, merging
// must at least halve the origin's disk reads and upstream bytes without
// costing the clients throughput.
func TestMergeStudySavesOriginReads(t *testing.T) {
	cfg := MergeStudyConfig{
		Watchers:      8,
		Titles:        3,
		TitleClusters: 256,
		ClusterBytes:  1 << 10,
		ZipfS:         1.2,
		Seed:          1,
		Window:        256,
	}
	rows, err := MergeStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byKey := make(map[string]MergeRow)
	for _, r := range rows {
		byKey[r.Pattern+"/"+r.Mode] = r
	}
	uni, mer := byKey["hot/unicast"], byKey["hot/merged"]
	if uni.OriginReads != int64(cfg.Watchers*cfg.TitleClusters) {
		t.Fatalf("unicast origin reads = %d, want one per delivery (%d)",
			uni.OriginReads, cfg.Watchers*cfg.TitleClusters)
	}
	if uni.Cohorts != 0 || uni.Merged != 0 {
		t.Fatalf("unicast cell reported cohorts=%d merged=%d", uni.Cohorts, uni.Merged)
	}
	if 2*mer.OriginReads > uni.OriginReads {
		t.Fatalf("merged origin reads %d not halved against unicast %d",
			mer.OriginReads, uni.OriginReads)
	}
	if 2*mer.UpstreamMB > uni.UpstreamMB {
		t.Fatalf("merged upstream %.2f MB not halved against unicast %.2f MB",
			mer.UpstreamMB, uni.UpstreamMB)
	}
	if mer.Merged == 0 {
		t.Fatal("no session merged onto a cohort")
	}
	savings := MergeSavings(rows)
	if savings["hot"] < 2 {
		t.Fatalf("hot saving %.2fx below the 2x acceptance bar", savings["hot"])
	}
	// The zipf pattern replays identical draws in both modes, so the
	// unicast read count must match the trace exactly.
	zu := byKey["zipf/unicast"]
	if zu.OriginReads != int64(cfg.Watchers*cfg.TitleClusters) {
		t.Fatalf("zipf unicast origin reads = %d, want %d",
			zu.OriginReads, cfg.Watchers*cfg.TitleClusters)
	}
	if out := FormatMergeStudy(rows); out == "" {
		t.Fatal("empty report")
	}
}

// TestMergeGateHalves: a pattern gone missing or a merged arm that merged
// nothing is structural; a saving drifting more than 20% below the baseline
// is timing, and only the timing half judges it.
func TestMergeGateHalves(t *testing.T) {
	rows := func(mergedReads, merged int64) []MergeRow {
		return []MergeRow{
			{Pattern: "hot", Mode: "unicast", OriginReads: 1200},
			{Pattern: "hot", Mode: "merged", OriginReads: mergedReads, Merged: merged},
		}
	}
	base := rows(100, 11) // 12x saving
	if bad, _ := regression(t, "merge", base, base); len(bad) != 0 {
		t.Fatalf("baseline against itself: %v", bad)
	}
	drifted := rows(200, 11) // 6x saving
	if bad := MergeStructural(drifted, base); len(bad) != 0 {
		t.Fatalf("structural half judged the saving: %v", bad)
	}
	if bad, _ := MergeTiming(drifted, base); len(bad) != 1 {
		t.Fatalf("timing half: %v, want the saving drift", bad)
	}
	if bad := MergeStructural(rows(100, 0), base); len(bad) != 1 {
		t.Fatalf("structural half: %v, want the merge-free run refused", bad)
	}
	if bad := MergeStructural(base[:1], base); len(bad) != 1 {
		t.Fatalf("structural half: %v, want the missing merged arm refused", bad)
	}
	if bad := MergeStructural(base, nil); len(bad) != 1 {
		t.Fatalf("structural half: %v, want an empty baseline refused", bad)
	}
}
