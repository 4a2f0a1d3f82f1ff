package striping

import (
	"errors"
	"testing"

	"dvod/internal/disk"
	"dvod/internal/media"
)

// TestWriteRollbackOnMidwayCollision: if a later part's block ID already
// exists on its disk, the write fails and every part written earlier is
// removed, leaving pre-existing foreign blocks untouched.
func TestWriteRollbackOnMidwayCollision(t *testing.T) {
	arr, err := disk.NewUniformArray("rb", 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the slot part 2 of "m" would use (disk 0).
	d0, err := arr.Disk(0)
	if err != nil {
		t.Fatal(err)
	}
	squatter := disk.BlockID{Title: "m", Part: 2}
	if err := d0.Write(squatter, []byte("squat")); err != nil {
		t.Fatal(err)
	}
	usedBefore := arr.Used()

	title := media.Title{Name: "m", SizeBytes: 100, BitrateMbps: 1.5}
	_, err = Write(arr, title, 30, nil) // parts 0..3; part 2 collides
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("Write error = %v, want ErrInsufficient wrapping the collision", err)
	}
	if arr.Used() != usedBefore {
		t.Fatalf("rollback left %d bytes, want %d", arr.Used(), usedBefore)
	}
	if !d0.Has(squatter) {
		t.Fatal("rollback deleted the pre-existing block")
	}
	got, err := d0.Read(squatter)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "squat" {
		t.Fatalf("squatter content = %q", got)
	}
}

// TestWriteCustomContentFunc: the content callback drives what lands on
// disk.
func TestWriteCustomContentFunc(t *testing.T) {
	arr, err := disk.NewUniformArray("cc", 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	title := media.Title{Name: "custom", SizeBytes: 10, BitrateMbps: 1.5}
	layout, err := Write(arr, title, 4, func(off int64, buf []byte) {
		for i := range buf {
			buf[i] = byte('A' + off + int64(i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if data := readTitle(t, arr, layout); string(data) != "ABCDEFGHIJ" {
		t.Fatalf("content = %q", data)
	}
	// Canonical verification fails by design for custom content.
	if verifyStored(t, arr, layout) == -1 {
		t.Fatal("custom content passed canonical verification")
	}
}
