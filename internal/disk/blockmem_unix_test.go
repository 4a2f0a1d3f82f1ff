//go:build unix

package disk

import (
	"runtime"
	"testing"
	"time"
)

// TestInMemoryBlocksStayOffHeap writes 64 MiB of in-memory blocks: the Go
// heap must not grow with them, or the collector's goal would double them.
func TestInMemoryBlocksStayOffHeap(t *testing.T) {
	const blockBytes, blocks = 256 << 10, 256
	d := newDisk(t, blockBytes*blocks)
	data := make([]byte, blockBytes)
	for i := range data {
		data[i] = byte(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for part := range blocks {
		if err := d.Write(BlockID{Title: "offheap", Part: part}, data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 8<<20 {
		t.Fatalf("heap grew %d MiB for %d MiB of blocks, want < 8 MiB", grew>>20, blockBytes*blocks>>20)
	}
	got, err := d.Read(BlockID{Title: "offheap", Part: blocks - 1})
	if err != nil || len(got) != blockBytes || got[blockBytes-1] != data[blockBytes-1] {
		t.Fatalf("read back %d bytes, err %v", len(got), err)
	}
	runtime.KeepAlive(d)
}

// TestDeletedBlockMemoryUnmapped checks that every mapping is released once
// its block is deleted and collected: Delete itself never unmaps, the block's
// cleanup does.
func TestDeletedBlockMemoryUnmapped(t *testing.T) {
	const blocks = 32
	d := newDisk(t, 4096*blocks)
	data := make([]byte, 4096)
	for part := range blocks {
		if err := d.Write(BlockID{Title: "unmap", Part: part}, data); err != nil {
			t.Fatal(err)
		}
	}
	if got := liveMappings.Load(); got < blocks {
		t.Fatalf("%d live mappings after writing %d blocks", got, blocks)
	}
	for part := range blocks {
		if err := d.Delete(BlockID{Title: "unmap", Part: part}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if liveMappings.Load() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d block mappings still live after Delete and GC", liveMappings.Load())
		}
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(d)
}
