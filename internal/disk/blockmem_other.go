//go:build !unix

package disk

// allocBlockMem returns n zeroed bytes of storage for an in-memory block.
// Platforms without mmap keep block bytes on the Go heap.
func allocBlockMem(_ *block, n int) ([]byte, error) {
	return make([]byte, n), nil
}
