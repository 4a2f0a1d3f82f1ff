// Package striping implements the DMA's storage layout (paper §"The
// algorithm"): a title of S bytes is divided into p = ⌈S/c⌉ parts of cluster
// size c, and part i is stored on disk i mod n of the server's n-disk array —
// "capacity oriented" cyclic placement. The same cluster boundaries drive the
// VRA's mid-stream re-routing: each cluster may be fetched from a different
// server.
package striping

import (
	"errors"
	"fmt"

	"dvod/internal/disk"
	"dvod/internal/media"
)

// Errors reported by the striping layer.
var (
	ErrBadCluster   = errors.New("cluster size must be positive")
	ErrBadPart      = errors.New("part index out of range")
	ErrInsufficient = errors.New("array cannot hold title")
)

// Layout describes how one title is striped over an array.
type Layout struct {
	Title        string `json:"title"`
	SizeBytes    int64  `json:"sizeBytes"`
	ClusterBytes int64  `json:"clusterBytes"`
	NumDisks     int    `json:"numDisks"`
}

// NewLayout computes the layout of a title over an n-disk array with cluster
// size c.
func NewLayout(t media.Title, clusterBytes int64, numDisks int) (Layout, error) {
	if err := t.Validate(); err != nil {
		return Layout{}, err
	}
	if clusterBytes <= 0 {
		return Layout{}, fmt.Errorf("%w: %d", ErrBadCluster, clusterBytes)
	}
	if numDisks <= 0 {
		return Layout{}, disk.ErrNoDisks
	}
	return Layout{
		Title:        t.Name,
		SizeBytes:    t.SizeBytes,
		ClusterBytes: clusterBytes,
		NumDisks:     numDisks,
	}, nil
}

// NumParts returns p = ⌈S/c⌉.
func (l Layout) NumParts() int {
	return int((l.SizeBytes + l.ClusterBytes - 1) / l.ClusterBytes)
}

// DiskFor returns the disk index holding part i: the cyclic rule of the
// paper (parts beyond n wrap around "starting from disk 1").
func (l Layout) DiskFor(part int) (int, error) {
	if part < 0 || part >= l.NumParts() {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadPart, part, l.NumParts())
	}
	return part % l.NumDisks, nil
}

// PartRange returns the byte range [off, off+length) of part i within the
// title. The final part may be shorter than the cluster size.
func (l Layout) PartRange(part int) (off, length int64, err error) {
	if part < 0 || part >= l.NumParts() {
		return 0, 0, fmt.Errorf("%w: %d of %d", ErrBadPart, part, l.NumParts())
	}
	off = int64(part) * l.ClusterBytes
	length = l.ClusterBytes
	if off+length > l.SizeBytes {
		length = l.SizeBytes - off
	}
	return off, length, nil
}

// PartForOffset returns the part index containing byte offset off.
func (l Layout) PartForOffset(off int64) (int, error) {
	if off < 0 || off >= l.SizeBytes {
		return 0, fmt.Errorf("offset %d outside title of %d bytes", off, l.SizeBytes)
	}
	return int(off / l.ClusterBytes), nil
}

// ContentFunc supplies title content for writing: it fills buf with the
// title's bytes starting at off. media.ContentAt (curried) is the canonical
// implementation.
type ContentFunc func(off int64, buf []byte)

// TitleContent adapts package media's deterministic generator to a
// ContentFunc for the named title.
func TitleContent(name string) ContentFunc {
	return func(off int64, buf []byte) { media.ContentAt(name, off, buf) }
}

// Fits reports whether the title would fit on the array right now, honoring
// per-disk capacity under cyclic placement (not just aggregate free space).
func Fits(arr *disk.Array, t media.Title, clusterBytes int64) bool {
	layout, err := NewLayout(t, clusterBytes, arr.NumDisks())
	if err != nil {
		return false
	}
	need := make([]int64, arr.NumDisks())
	for part := range layout.NumParts() {
		di, err := layout.DiskFor(part)
		if err != nil {
			return false
		}
		_, length, err := layout.PartRange(part)
		if err != nil {
			return false
		}
		need[di] += length
	}
	for i, n := range need {
		d, err := arr.Disk(i)
		if err != nil {
			return false
		}
		if d.Free() < n {
			return false
		}
	}
	return true
}

// Write stripes the title's content onto the array. On any failure every
// block written so far is rolled back and the array is left unchanged.
func Write(arr *disk.Array, t media.Title, clusterBytes int64, content ContentFunc) (Layout, error) {
	layout, err := NewLayout(t, clusterBytes, arr.NumDisks())
	if err != nil {
		return Layout{}, err
	}
	if content == nil {
		content = TitleContent(t.Name)
	}
	written := make([]struct {
		d  *disk.Disk
		id disk.BlockID
	}, 0, layout.NumParts())
	rollback := func() {
		for _, w := range written {
			_ = w.d.Delete(w.id)
		}
	}
	buf := make([]byte, clusterBytes)
	for part := range layout.NumParts() {
		di, err := layout.DiskFor(part)
		if err != nil {
			rollback()
			return Layout{}, err
		}
		d, err := arr.Disk(di)
		if err != nil {
			rollback()
			return Layout{}, err
		}
		off, length, err := layout.PartRange(part)
		if err != nil {
			rollback()
			return Layout{}, err
		}
		chunk := buf[:length]
		content(off, chunk)
		id := disk.BlockID{Title: t.Name, Part: part}
		if err := d.Write(id, chunk); err != nil {
			rollback()
			return Layout{}, fmt.Errorf("%w: part %d: %v", ErrInsufficient, part, err)
		}
		written = append(written, struct {
			d  *disk.Disk
			id disk.BlockID
		}{d, id})
	}
	return layout, nil
}

// ReadPartInto copies one part into dst without allocating — the entry point
// of the delivery plane's pooled-buffer pipeline. dst must be at least the
// part's length (PartRange); the part size is returned.
func ReadPartInto(arr *disk.Array, layout Layout, part int, dst []byte) (int, error) {
	di, err := layout.DiskFor(part)
	if err != nil {
		return 0, err
	}
	d, err := arr.Disk(di)
	if err != nil {
		return 0, err
	}
	return d.ReadInto(disk.BlockID{Title: layout.Title, Part: part}, dst)
}

// PartFileRef pins one part's backing file for a kernel-path send
// (transport.NewFileFrame → sendfile). It reports ok = false whenever the
// part cannot be served straight off a descriptor — memory-backed disk,
// absent block, or an installed read interceptor — and the caller falls back
// to ReadPartInto. On success the caller owns the ref and must Close it.
func PartFileRef(arr *disk.Array, layout Layout, part int) (disk.FileRef, bool) {
	di, err := layout.DiskFor(part)
	if err != nil {
		return disk.FileRef{}, false
	}
	d, err := arr.Disk(di)
	if err != nil {
		return disk.FileRef{}, false
	}
	return d.FileRef(disk.BlockID{Title: layout.Title, Part: part})
}

// Delete removes all of the title's parts from the array. Missing parts are
// ignored so Delete is safe to call on partially stored titles.
func Delete(arr *disk.Array, layout Layout) error {
	var firstErr error
	for part := range layout.NumParts() {
		di, err := layout.DiskFor(part)
		if err != nil {
			return err
		}
		d, err := arr.Disk(di)
		if err != nil {
			return err
		}
		if err := d.Delete(disk.BlockID{Title: layout.Title, Part: part}); err != nil &&
			!errors.Is(err, disk.ErrBlockUnknown) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
