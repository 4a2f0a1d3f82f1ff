package striping

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"dvod/internal/disk"
	"dvod/internal/media"
)

func title(name string, size int64) media.Title {
	return media.Title{Name: name, SizeBytes: size, BitrateMbps: 1.5}
}

func array(t *testing.T, n int, capacity int64) *disk.Array {
	t.Helper()
	arr, err := disk.NewUniformArray("t", n, capacity)
	if err != nil {
		t.Fatalf("NewUniformArray: %v", err)
	}
	return arr
}

// readPart reads one stored part through ReadPartInto, the delivery plane's
// reader.
func readPart(t *testing.T, arr *disk.Array, layout Layout, part int) []byte {
	t.Helper()
	_, length, err := layout.PartRange(part)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, length)
	n, err := ReadPartInto(arr, layout, part, buf)
	if err != nil {
		t.Fatalf("ReadPartInto(%d): %v", part, err)
	}
	return buf[:n]
}

// readTitle reassembles the whole stored title part by part.
func readTitle(t *testing.T, arr *disk.Array, layout Layout) []byte {
	t.Helper()
	out := make([]byte, 0, layout.SizeBytes)
	for part := range layout.NumParts() {
		out = append(out, readPart(t, arr, layout, part)...)
	}
	return out
}

// verifyStored returns the first stored part that differs from the title's
// canonical content, or -1 when every part matches.
func verifyStored(t *testing.T, arr *disk.Array, layout Layout) int {
	t.Helper()
	for part := range layout.NumParts() {
		off, _, err := layout.PartRange(part)
		if err != nil {
			t.Fatal(err)
		}
		if !media.Verify(layout.Title, off, readPart(t, arr, layout, part)) {
			return part
		}
	}
	return -1
}

func TestNewLayoutValidation(t *testing.T) {
	if _, err := NewLayout(title("m", 100), 0, 3); !errors.Is(err, ErrBadCluster) {
		t.Fatalf("zero cluster error = %v", err)
	}
	if _, err := NewLayout(title("m", 100), 10, 0); !errors.Is(err, disk.ErrNoDisks) {
		t.Fatalf("zero disks error = %v", err)
	}
	if _, err := NewLayout(media.Title{}, 10, 3); err == nil {
		t.Fatal("invalid title accepted")
	}
}

func TestLayoutPartMath(t *testing.T) {
	// 100 bytes, 30-byte clusters → 4 parts: 30,30,30,10.
	l, err := NewLayout(title("m", 100), 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumParts() != 4 {
		t.Fatalf("NumParts = %d, want 4", l.NumParts())
	}
	wantRanges := [][2]int64{{0, 30}, {30, 30}, {60, 30}, {90, 10}}
	wantDisks := []int{0, 1, 2, 0} // cyclic wrap: p > n reuses disk 0
	for p := range 4 {
		off, length, err := l.PartRange(p)
		if err != nil {
			t.Fatal(err)
		}
		if off != wantRanges[p][0] || length != wantRanges[p][1] {
			t.Fatalf("PartRange(%d) = %d,%d want %v", p, off, length, wantRanges[p])
		}
		di, err := l.DiskFor(p)
		if err != nil {
			t.Fatal(err)
		}
		if di != wantDisks[p] {
			t.Fatalf("DiskFor(%d) = %d, want %d", p, di, wantDisks[p])
		}
	}
	if _, _, err := l.PartRange(4); !errors.Is(err, ErrBadPart) {
		t.Fatalf("PartRange(4) error = %v", err)
	}
	if _, err := l.DiskFor(-1); !errors.Is(err, ErrBadPart) {
		t.Fatalf("DiskFor(-1) error = %v", err)
	}
}

func TestLayoutFewerPartsThanDisks(t *testing.T) {
	// Paper: "if n>p then one video part is stored in each one of the first
	// p hard disks".
	l, err := NewLayout(title("m", 50), 30, 8)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumParts() != 2 {
		t.Fatalf("NumParts = %d, want 2", l.NumParts())
	}
	for p := range 2 {
		di, err := l.DiskFor(p)
		if err != nil {
			t.Fatal(err)
		}
		if di != p {
			t.Fatalf("DiskFor(%d) = %d, want %d", p, di, p)
		}
	}
}

func TestPartForOffset(t *testing.T) {
	l, err := NewLayout(title("m", 100), 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		off  int64
		want int
	}{{0, 0}, {29, 0}, {30, 1}, {89, 2}, {90, 3}, {99, 3}}
	for _, tc := range cases {
		got, err := l.PartForOffset(tc.off)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("PartForOffset(%d) = %d, want %d", tc.off, got, tc.want)
		}
	}
	for _, off := range []int64{-1, 100} {
		if _, err := l.PartForOffset(off); err == nil {
			t.Fatalf("PartForOffset(%d) accepted", off)
		}
	}
}

func TestWriteAndReadBack(t *testing.T) {
	arr := array(t, 3, 1000)
	tt := title("movie", 250)
	layout, err := Write(arr, tt, 64, nil)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if layout.NumParts() != 4 {
		t.Fatalf("NumParts = %d, want 4", layout.NumParts())
	}
	if bad := verifyStored(t, arr, layout); bad != -1 {
		t.Fatalf("stored part %d mismatches canonical content", bad)
	}
	// Part 3 is the short final part, on disk 0 by the cyclic rule.
	if got := readPart(t, arr, layout, 3); len(got) != 250-3*64 {
		t.Fatalf("final part is %d bytes, want %d", len(got), 250-3*64)
	}
	d0, err := arr.Disk(0)
	if err != nil {
		t.Fatal(err)
	}
	if !d0.Has(disk.BlockID{Title: "movie", Part: 3}) {
		t.Fatal("part 3 is not on disk 0")
	}
	// Whole-title reassembly matches canonical content.
	if data := readTitle(t, arr, layout); int64(len(data)) != 250 || !media.Verify("movie", 0, data) {
		t.Fatal("reassembled content mismatch")
	}
	// Array accounting: 250 bytes stored.
	if arr.Used() != 250 {
		t.Fatalf("array used = %d, want 250", arr.Used())
	}
}

func TestReadPartIntoValidation(t *testing.T) {
	arr := array(t, 2, 1000)
	layout, err := Write(arr, title("m", 100), 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 30)
	for _, part := range []int{-1, 4} {
		if _, err := ReadPartInto(arr, layout, part, buf); !errors.Is(err, ErrBadPart) {
			t.Fatalf("ReadPartInto(part %d) error = %v, want ErrBadPart", part, err)
		}
	}
	if _, err := ReadPartInto(arr, layout, 0, buf[:29]); err == nil {
		t.Fatal("ReadPartInto accepted a buffer shorter than the part")
	}
	// The short final part fits a full-cluster buffer and reports its size.
	n, err := ReadPartInto(arr, layout, 3, buf)
	if err != nil || n != 10 {
		t.Fatalf("ReadPartInto(final part) = %d, %v; want 10, nil", n, err)
	}
}

func TestWriteRollbackOnFullDisk(t *testing.T) {
	// Disk 0 gets parts 0 and 2 (2×30=60 bytes) but only holds 50: the
	// write must fail and leave the array empty.
	arr := array(t, 2, 50)
	tt := title("big", 100)
	if Fits(arr, tt, 30) {
		t.Fatal("Fits should report false")
	}
	if _, err := Write(arr, tt, 30, nil); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("Write error = %v, want ErrInsufficient", err)
	}
	if arr.Used() != 0 {
		t.Fatalf("rollback left %d bytes on array", arr.Used())
	}
}

func TestFitsPerDiskNotAggregate(t *testing.T) {
	// Aggregate free = 100, but cyclic placement puts 60 bytes on disk 0
	// which has only 50 free.
	arr := array(t, 2, 50)
	if Fits(arr, title("m", 100), 30) {
		t.Fatal("Fits ignored per-disk capacity")
	}
	// Same bytes over 4 disks fits.
	arr4 := array(t, 4, 50)
	if !Fits(arr4, title("m", 100), 30) {
		t.Fatal("Fits rejected a feasible layout")
	}
}

func TestDeleteFreesEverything(t *testing.T) {
	arr := array(t, 3, 1000)
	layout, err := Write(arr, title("m", 500), 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Delete(arr, layout); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if arr.Used() != 0 {
		t.Fatalf("Delete left %d bytes", arr.Used())
	}
	// Deleting again is a no-op.
	if err := Delete(arr, layout); err != nil {
		t.Fatalf("second Delete: %v", err)
	}
}

func TestVerifyStoredDetectsCorruption(t *testing.T) {
	arr := array(t, 2, 1000)
	layout, err := Write(arr, title("m", 100), 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt part 1 by replacing it on its disk.
	di, err := layout.DiskFor(1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := arr.Disk(di)
	if err != nil {
		t.Fatal(err)
	}
	id := disk.BlockID{Title: "m", Part: 1}
	if err := d.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(id, make([]byte, 30)); err != nil {
		t.Fatal(err)
	}
	if bad := verifyStored(t, arr, layout); bad != 1 {
		t.Fatalf("first corrupt part = %d, want 1", bad)
	}
}

// Property: for any size/cluster/disks, part ranges tile [0, size) exactly
// and each disk's assigned bytes differ by at most one cluster.
func TestLayoutTilingProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := 1 + r.Int63n(10000)
		cluster := 1 + r.Int63n(500)
		nd := 1 + r.Intn(10)
		l, err := NewLayout(title("p", size), cluster, nd)
		if err != nil {
			return false
		}
		var next int64
		perDisk := make([]int64, nd)
		for p := range l.NumParts() {
			off, length, err := l.PartRange(p)
			if err != nil || off != next || length <= 0 || length > cluster {
				return false
			}
			di, err := l.DiskFor(p)
			if err != nil {
				return false
			}
			perDisk[di] += length
			next = off + length
		}
		if next != size {
			return false
		}
		// Balance: max and min per-disk load differ by at most one cluster
		// among disks that received any part.
		var mn, mx int64 = 1 << 62, 0
		for _, b := range perDisk {
			if b > mx {
				mx = b
			}
			if b > 0 && b < mn {
				mn = b
			}
		}
		return mx == 0 || mx-mn <= cluster
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any size, cluster and disk count, the title written and read
// back part by part is the canonical content.
func TestWriteReadBackProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := 1 + r.Int63n(5000)
		cluster := 64 + r.Int63n(600) // at most 79 parts, one block file each
		nd := 1 + r.Intn(6)
		arr, err := disk.NewUniformArray("p", nd, 1<<20)
		if err != nil {
			return false
		}
		layout, err := Write(arr, title("prop-movie", size), cluster, nil)
		if err != nil {
			return false
		}
		data := readTitle(t, arr, layout)
		ok := int64(len(data)) == size && media.Verify("prop-movie", 0, data)
		return Delete(arr, layout) == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
