//go:build !linux

package disk

// newMemBlock stores an in-memory block's bytes on the Go heap. Without
// Linux's sendfile there is no kernel path for a block file to serve, so
// these blocks have no descriptor and FileRef refuses them.
func newMemBlock(data []byte) (*block, error) {
	mem := make([]byte, len(data))
	copy(mem, data)
	return &block{size: int64(len(data)), data: mem}, nil
}
