//go:build linux

package disk

import (
	"fmt"
	"os"
)

// tmpfsDir is where an in-memory disk keeps its block files. It is tmpfs, so
// the bytes never leave memory.
const tmpfsDir = "/dev/shm"

// newMemBlock stores an in-memory block as a block file on tmpfs that is
// unlinked as soon as it is created. The open descriptor is then the block's
// only handle: the kernel frees its pages when the last pin closes it, with
// no garbage collection involved, and FileRef serves the block with sendfile
// like any file-backed one. A missing or full tmpfs, or a process out of
// descriptors, fails the write.
func newMemBlock(data []byte) (*block, error) {
	f, err := os.CreateTemp(tmpfsDir, "dvod-blk-*")
	if err != nil {
		return nil, fmt.Errorf("create tmpfs block: %w", err)
	}
	if err := os.Remove(f.Name()); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("unlink tmpfs block: %w", err)
	}
	if err := writeBlockData(f, data); err != nil {
		return nil, err
	}
	return &block{size: int64(len(data)), f: f}, nil
}
