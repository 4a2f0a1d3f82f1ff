package prefix

import (
	"fmt"
	"sync"
	"testing"

	"dvod/internal/disk"
	"dvod/internal/media"
	"dvod/internal/striping"
)

func cand(name string, clusters, points int64) Candidate {
	return Candidate{Name: name, Clusters: clusters, Points: points}
}

func TestSolveZeroBudget(t *testing.T) {
	got := Solve([]Candidate{cand("a", 10, 100), cand("b", 10, 1)}, 0)
	if len(got) != 0 {
		t.Fatalf("zero budget pinned %v, want nothing", got)
	}
	if got := Solve(nil, 100); len(got) != 0 {
		t.Fatalf("empty catalog pinned %v, want nothing", got)
	}
}

func TestSolveBudgetLargerThanCatalog(t *testing.T) {
	cands := []Candidate{cand("a", 7, 100), cand("b", 3, 0), cand("c", 5, 12)}
	got := Solve(cands, 1_000_000)
	for _, c := range cands {
		if int64(got[c.Name]) != c.Clusters {
			t.Fatalf("title %s pinned %d of %d clusters under oversize budget",
				c.Name, got[c.Name], c.Clusters)
		}
	}
}

func TestSolveFavorsPopularHeads(t *testing.T) {
	// hot has 100× the points of cold; with budget for half the catalog the
	// knapsack must give hot the longer prefix, and both must get at least
	// cluster 0 (the harmonic decay makes every title's head cheap).
	got := Solve([]Candidate{cand("hot", 100, 1000), cand("cold", 100, 10)}, 100)
	if got["hot"] <= got["cold"] {
		t.Fatalf("hot prefix %d not longer than cold %d", got["hot"], got["cold"])
	}
	if got["hot"]+got["cold"] != 100 {
		t.Fatalf("spent %d clusters, budget was 100", got["hot"]+got["cold"])
	}
	if got["cold"] == 0 {
		t.Fatalf("cold title got no prefix at all: %v", got)
	}
}

func TestSolveEqualPopularityTiesDeterministic(t *testing.T) {
	// Equal points, equal sizes: the lexicographically smaller name must win
	// the odd cluster, and the answer must not depend on input order.
	mk := func(order []string) map[string]int {
		cands := make([]Candidate, 0, len(order))
		for _, n := range order {
			cands = append(cands, cand(n, 10, 50))
		}
		return Solve(cands, 7)
	}
	a := mk([]string{"zeta", "alpha", "mid"})
	for range 10 {
		b := mk([]string{"mid", "zeta", "alpha"})
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("solve not order-independent: %v vs %v", a, b)
		}
	}
	// 7 clusters over three equal titles: marginal values are identical per
	// rank, so ranks fill round-robin in name order — alpha gets the spare.
	if a["alpha"] != 3 || a["mid"] != 2 || a["zeta"] != 2 {
		t.Fatalf("tie-break allocation %v, want alpha=3 mid=2 zeta=2", a)
	}
}

func TestSolveRespectsBudgetExactly(t *testing.T) {
	cands := []Candidate{cand("a", 50, 9), cand("b", 50, 9), cand("c", 50, 2)}
	for _, budget := range []int64{1, 2, 3, 10, 49, 150, 151} {
		got := Solve(cands, budget)
		total := int64(0)
		for _, k := range got {
			total += int64(k)
		}
		want := budget
		if want > 150 {
			want = 150
		}
		if total != want {
			t.Fatalf("budget %d: pinned %d clusters", budget, total)
		}
	}
}

// testManager builds a manager over an in-memory array with the given
// budget, catalog, and points map (mutable by the caller).
func testManager(t *testing.T, budgetClusters int64, titles []media.Title, points map[string]int64) (*Manager, *sync.Mutex) {
	t.Helper()
	const clusterBytes = 64
	arr, err := disk.NewUniformArray("pfx", 2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	m, err := New(Config{
		Array:        arr,
		ClusterBytes: clusterBytes,
		BudgetBytes:  budgetClusters * clusterBytes,
		Points: func(name string) int64 {
			mu.Lock()
			defer mu.Unlock()
			return points[name]
		},
		Catalog: func() []media.Title { return titles },
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, &mu
}

func TestManagerResolvePinsAndServes(t *testing.T) {
	titles := []media.Title{
		{Name: "hot", SizeBytes: 64 * 16, BitrateMbps: 1.5},
		{Name: "cold", SizeBytes: 64 * 16, BitrateMbps: 1.5},
	}
	points := map[string]int64{"hot": 500, "cold": 1}
	m, _ := testManager(t, 8, titles, points)
	pinned, unpinned, err := m.Resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if pinned != 8 || unpinned != 0 {
		t.Fatalf("pinned %d unpinned %d, want 8/0", pinned, unpinned)
	}
	kHot, kCold := m.PrefixClusters("hot"), m.PrefixClusters("cold")
	if kHot <= kCold || kHot+kCold != 8 {
		t.Fatalf("prefixes hot=%d cold=%d", kHot, kCold)
	}
	// Every pinned cluster must read back as canonical content.
	for _, name := range []string{"hot", "cold"} {
		k := m.PrefixClusters(name)
		for idx := range k {
			e, ok := m.Lookup(name, idx)
			if !ok {
				t.Fatalf("lookup %s[%d] missed inside K=%d", name, idx, k)
			}
			off, length, _ := e.Layout.PartRange(idx)
			data := make([]byte, length)
			if _, err := striping.ReadPartInto(m.Array(), e.Layout, idx, data); err != nil {
				t.Fatalf("read %s[%d]: %v", name, idx, err)
			}
			if !media.Verify(name, off, data) {
				t.Fatalf("pinned cluster %s[%d] content mismatch", name, idx)
			}
		}
		if _, ok := m.Lookup(name, k); ok {
			t.Fatalf("lookup %s[%d] hit beyond pinned prefix", name, k)
		}
	}
}

func TestManagerResolveShrinksOnPopularityFlip(t *testing.T) {
	titles := []media.Title{
		{Name: "a", SizeBytes: 64 * 16, BitrateMbps: 1.5},
		{Name: "b", SizeBytes: 64 * 16, BitrateMbps: 1.5},
	}
	points := map[string]int64{"a": 1000, "b": 0}
	m, mu := testManager(t, 8, titles, points)
	if _, _, err := m.Resolve(); err != nil {
		t.Fatal(err)
	}
	kA := m.PrefixClusters("a")
	mu.Lock()
	points["a"], points["b"] = 0, 1000
	mu.Unlock()
	pinned, unpinned, err := m.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if m.PrefixClusters("b") <= m.PrefixClusters("a") {
		t.Fatalf("flip did not move prefix: a=%d b=%d", m.PrefixClusters("a"), m.PrefixClusters("b"))
	}
	if pinned == 0 || unpinned == 0 {
		t.Fatalf("flip epoch pinned %d unpinned %d, want both > 0 (was a=%d)", pinned, unpinned, kA)
	}
	// The store must hold exactly what the view says: no leaked blocks.
	used := int64(0)
	for i := range m.Array().NumDisks() {
		d, _ := m.Array().Disk(i)
		used += int64(d.NumBlocks())
	}
	want := int64(m.PrefixClusters("a") + m.PrefixClusters("b"))
	if used != want {
		t.Fatalf("store holds %d blocks, view says %d", used, want)
	}
}

// TestManagerResolveUnderConcurrentLookups is the epoch-re-solve race
// required by the issue: readers hammer Lookup/PrefixClusters while epochs
// flip popularity back and forth. Run under -race; correctness here is "a
// hit always yields a readable, verifiable cluster".
func TestManagerResolveUnderConcurrentLookups(t *testing.T) {
	titles := []media.Title{
		{Name: "x", SizeBytes: 64 * 32, BitrateMbps: 1.5},
		{Name: "y", SizeBytes: 64 * 32, BitrateMbps: 1.5},
	}
	points := map[string]int64{"x": 100, "y": 0}
	m, mu := testManager(t, 16, titles, points)
	if _, _, err := m.Resolve(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, name := range []string{"x", "y"} {
					k := m.PrefixClusters(name)
					for idx := 0; idx < k; idx++ {
						e, ok := m.Lookup(name, idx)
						if !ok {
							continue
						}
						// A racing shrink may have freed the block; a miss
						// is fine, a corrupt hit is not.
						n, err := striping.ReadPartInto(m.Array(), e.Layout, idx, buf)
						if err != nil {
							continue
						}
						off, _, _ := e.Layout.PartRange(idx)
						if !media.Verify(name, off, buf[:n]) {
							t.Errorf("corrupt prefix read %s[%d]", name, idx)
							return
						}
					}
				}
			}
		}()
	}
	for i := range 30 {
		mu.Lock()
		if i%2 == 0 {
			points["x"], points["y"] = 0, 100
		} else {
			points["x"], points["y"] = 100, 0
		}
		mu.Unlock()
		if _, _, err := m.Resolve(); err != nil {
			t.Fatalf("resolve %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestManagerBudgetValidation(t *testing.T) {
	arr, err := disk.NewUniformArray("pfx", 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Array:        arr,
		ClusterBytes: 64,
		Points:       func(string) int64 { return 0 },
		Catalog:      func() []media.Title { return nil },
	}
	over := base
	over.BudgetBytes = 2048
	if _, err := New(over); err == nil {
		t.Fatal("budget beyond capacity accepted")
	}
	def := base
	m, err := New(def)
	if err != nil {
		t.Fatal(err)
	}
	if m.BudgetClusters() != 1024/64 {
		t.Fatalf("default budget %d clusters, want %d", m.BudgetClusters(), 1024/64)
	}
}
