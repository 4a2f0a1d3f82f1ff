//go:build unix

package disk

import (
	"runtime"
	"sync/atomic"
	"syscall"
)

// liveMappings counts block mappings not yet unmapped by their cleanup.
var liveMappings atomic.Int64

// allocBlockMem returns n zeroed bytes of storage for the in-memory block b,
// taken from an anonymous private mapping instead of the Go heap: stored
// titles are the bulk of a server's memory, and on the heap they would count
// toward the garbage collector's goal, which lets the heap grow to twice
// the stored bytes. The mapping is released by a cleanup once b is
// unreachable. Delete must never unmap it as well: the cleanup would unmap a
// second time, possibly a range a newer block has been given since.
func allocBlockMem(b *block, n int) ([]byte, error) {
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	liveMappings.Add(1)
	runtime.AddCleanup(b, freeBlockMem, mem)
	return mem, nil
}

// freeBlockMem unmaps one block's storage; it runs as the block's cleanup.
func freeBlockMem(mem []byte) {
	_ = syscall.Munmap(mem)
	liveMappings.Add(-1)
}
