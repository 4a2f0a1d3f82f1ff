package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Block files: one file per block — under the disk's directory on a
// file-backed disk, unlinked on tmpfs for an in-memory disk on Linux — each
// opening with a fixed header so a truncated or scribbled-over file surfaces
// as a typed ErrCorruptBlock instead of silently serving garbage. The layout
// is
//
//	magic(8) "DVODBLK1" | size(8, big-endian) | size bytes of block data
//
// Block data therefore starts at blockHeaderLen, which is also the offset a
// kernel-path sender (sendfile) must begin its transfer at — see
// FileRef.
const (
	blockMagic     = "DVODBLK1"
	blockHeaderLen = 16
)

// ErrCorruptBlock reports a file-backed block whose backing file is missing,
// truncated, or carries a mangled header — storage corruption, as opposed to
// the injected faults of ErrInjectedRead.
var ErrCorruptBlock = errors.New("stored block corrupt")

// block is one stored block's backing: exactly one of data or f is set. f is
// a block file — named under a file-backed disk's directory, or (an
// in-memory disk on Linux) an unlinked tmpfs file; data holds an in-memory
// block's bytes on other platforms.
type block struct {
	size int64
	data []byte
	f    *os.File
	// path is the file's name for Delete to unlink; empty when the file has
	// no name (an unlinked tmpfs block).
	path string
	// refs counts the stored map entry (1) plus every outstanding pin (a
	// FileRef or an in-flight read), so Delete during a send removes the
	// block but keeps the descriptor open until the last holder is done.
	refs atomic.Int32
}

// openBlockFiles counts the block descriptors, across every disk of the
// process, that their last release has not closed yet. (A disk dropped
// without deleting its blocks leaves them to os.File's finalizer, which this
// count does not see.)
var openBlockFiles atomic.Int64

// release drops one reference, closing the backing file when the last holder
// is gone. Heap-backed blocks have no file to close.
func (b *block) release() {
	if b.refs.Add(-1) == 0 && b.f != nil {
		_ = b.f.Close()
		openBlockFiles.Add(-1)
	}
}

// blockFileName maps a block id to its file name. The title is hex-encoded
// so arbitrary catalog names (path separators, dots) cannot escape the
// disk's directory.
func blockFileName(id BlockID) string {
	return fmt.Sprintf("%x.%d.blk", id.Title, id.Part)
}

// writeBlockFile creates the block's backing file under dir. The file is
// created exclusively: a leftover file of the same name fails the write like
// ErrBlockExists would.
func writeBlockFile(dir string, id BlockID, data []byte) (*block, error) {
	f, err := os.OpenFile(filepath.Join(dir, blockFileName(id)),
		os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("create block file: %w", err)
	}
	if err := writeBlockData(f, data); err != nil {
		_ = os.Remove(f.Name())
		return nil, err
	}
	return &block{size: int64(len(data)), f: f, path: f.Name()}, nil
}

// writeBlockData writes the header and data into a fresh block file, which
// stays open for ReadAt use and is counted in openBlockFiles. On error the
// file is closed; removing its name, if it has one, is the caller's part.
func writeBlockData(f *os.File, data []byte) error {
	var hdr [blockHeaderLen]byte
	copy(hdr[:8], blockMagic)
	binary.BigEndian.PutUint64(hdr[8:], uint64(len(data)))
	_, err := f.Write(hdr[:])
	if err == nil {
		_, err = f.Write(data)
	}
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("write block file: %w", err)
	}
	openBlockFiles.Add(1)
	return nil
}

// checkBlockFile re-validates a block file's header against the recorded
// block size, classifying mismatches as ErrCorruptBlock.
func checkBlockFile(b *block, id BlockID, diskID string) error {
	var hdr [blockHeaderLen]byte
	if _, err := b.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("read %s on %s: %w: header unreadable: %v", id, diskID, ErrCorruptBlock, err)
	}
	if string(hdr[:8]) != blockMagic {
		return fmt.Errorf("read %s on %s: %w: bad magic %q", id, diskID, ErrCorruptBlock, hdr[:8])
	}
	if got := int64(binary.BigEndian.Uint64(hdr[8:])); got != b.size {
		return fmt.Errorf("read %s on %s: %w: header says %d bytes, stored %d",
			id, diskID, ErrCorruptBlock, got, b.size)
	}
	st, err := b.f.Stat()
	if err != nil {
		return fmt.Errorf("read %s on %s: %w: stat: %v", id, diskID, ErrCorruptBlock, err)
	}
	if st.Size() != blockHeaderLen+b.size {
		return fmt.Errorf("read %s on %s: %w: file is %d bytes, want %d",
			id, diskID, ErrCorruptBlock, st.Size(), blockHeaderLen+b.size)
	}
	return nil
}

// readBlockInto copies one block's bytes into dst (len(dst) == block size),
// from memory or via pread on the backing file. File reads re-validate the
// header first so truncation and header scribbles surface as ErrCorruptBlock.
// The caller holds a pin on b, which keeps the descriptor open.
func readBlockInto(b *block, id BlockID, diskID string, dst []byte) error {
	if b.f == nil {
		copy(dst, b.data)
		return nil
	}
	if err := checkBlockFile(b, id, diskID); err != nil {
		return err
	}
	if _, err := b.f.ReadAt(dst, blockHeaderLen); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("read %s on %s: %w: body truncated", id, diskID, ErrCorruptBlock)
		}
		return fmt.Errorf("read %s on %s: %w: %v", id, diskID, ErrCorruptBlock, err)
	}
	return nil
}

// FileRef is a pinned zero-copy handle on one block file: the open
// descriptor plus the byte range [Offset, Offset+Size) holding the block's
// data. The kernel delivery path hands it to sendfile(2) so the bytes
// travel disk→socket without entering Go userspace.
//
// The descriptor is shared with every other reader of the block; holders
// must only use positioned I/O (ReadAt, sendfile with an explicit offset)
// and never Seek it. The pin keeps the descriptor open across a concurrent
// Delete; call Close exactly once when the transfer is done.
type FileRef struct {
	f    *os.File
	off  int64
	size int64
	blk  *block
}

// File returns the backing descriptor (positioned I/O only — see FileRef).
func (r FileRef) File() *os.File { return r.f }

// Offset returns the byte offset of the block data within the file.
func (r FileRef) Offset() int64 { return r.off }

// Size returns the block's data length in bytes.
func (r FileRef) Size() int64 { return r.size }

// Close drops the pin. The descriptor closes once the block is deleted and
// every ref is closed; Close must be called exactly once per FileRef.
func (r FileRef) Close() {
	if r.blk != nil {
		r.blk.release()
	}
}

// FileRef returns a kernel-sendable handle on the block, or ok == false when
// the delivery plane must use the buffered read path instead: the block is
// absent, the block has no file (an in-memory disk off Linux), or a
// fault-injection ReadInterceptor is installed (injected slow/stall/
// short-read faults act on buffered reads, so an armed injector forces every
// read through them).
func (d *Disk) FileRef(id BlockID) (FileRef, bool) {
	if d.intercept.Load() != nil {
		return FileRef{}, false
	}
	b, err := d.pin(id)
	if err != nil {
		return FileRef{}, false
	}
	if b.f == nil {
		b.release()
		return FileRef{}, false
	}
	return FileRef{f: b.f, off: blockHeaderLen, size: b.size, blk: b}, true
}

// FileBacked reports whether this disk stores blocks in named files under a
// directory (built with NewFileBacked) rather than in memory.
func (d *Disk) FileBacked() bool { return d.dir != "" }

// NewFileBacked returns a disk that stores each block in its own file under
// dir (created if missing) instead of in memory, enabling the kernel
// delivery path's FileRef handles. Capacity accounting, the service-time
// model, and the ReadInterceptor fault hook behave exactly as on a
// memory-backed disk.
func NewFileBacked(id string, capacityBytes int64, dir string) (*Disk, error) {
	d, err := New(id, capacityBytes)
	if err != nil {
		return nil, err
	}
	if dir == "" {
		return nil, errors.New("file-backed disk needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk %s: %w", id, err)
	}
	d.dir = dir
	return d, nil
}

// NewUniformFileArray builds an array of n identical file-backed disks named
// "<prefix>-0".."<prefix>-n-1", each storing its blocks under its own
// subdirectory of dir.
func NewUniformFileArray(prefix string, n int, capacityBytes int64, dir string) (*Array, error) {
	if n <= 0 {
		return nil, ErrNoDisks
	}
	disks := make([]*Disk, n)
	for i := range n {
		name := fmt.Sprintf("%s-%d", prefix, i)
		d, err := NewFileBacked(name, capacityBytes, filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		disks[i] = d
	}
	return NewArray(disks...)
}
