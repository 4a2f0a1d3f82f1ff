package disk

import (
	"errors"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
)

// blockPattern is the content of block part: distinct per part, so a read
// served from another block's (or a reused) range shows as wrong bytes.
func blockPattern(part, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(part*7 + i)
	}
	return out
}

// TestConcurrentReadDeleteWholeBlocks races readers against a goroutine that
// deletes and rewrites blocks, so block files are closed and their pages
// reused under the readers. Some readers copy with ReadInto, others pin a
// FileRef and read through its descriptor, as a kernel send would. Every
// read must return the whole, correct block or find it absent.
func TestConcurrentReadDeleteWholeBlocks(t *testing.T) {
	const parts, blockBytes, readers, rounds = 16, 8192, 6, 400
	d := newDisk(t, parts*blockBytes)
	want := make([][]byte, parts)
	for p := range parts {
		want[p] = blockPattern(p, blockBytes)
		if err := d.Write(BlockID{Title: "race", Part: p}, want[p]); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() { // deleter: drop and rewrite every block in turn
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := BlockID{Title: "race", Part: i % parts}
			if err := d.Delete(id); err != nil {
				t.Error(err)
				return
			}
			if err := d.Write(id, want[id.Part]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	var refReads atomic.Int64
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, blockBytes)
			for i := range rounds {
				p := (r + i) % parts
				id := BlockID{Title: "race", Part: p}
				var n int
				var err error
				if r%2 == 0 {
					n, err = d.ReadInto(id, buf)
				} else {
					ref, ok := d.FileRef(id)
					if !ok {
						continue // absent between delete and rewrite, or heap bytes off Linux
					}
					n, err = ref.File().ReadAt(buf, ref.Offset())
					ref.Close()
					refReads.Add(1)
				}
				switch {
				case errors.Is(err, ErrBlockUnknown):
				case err != nil:
					t.Errorf("read part %d: %v", p, err)
					return
				case n != blockBytes || string(buf) != string(want[p]):
					t.Errorf("read part %d: %d bytes, content mismatch", p, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if runtime.GOOS == "linux" && refReads.Load() == 0 {
		t.Fatal("no reader ever held a FileRef on the in-memory disk")
	}
}

// TestBlockDescriptorsCloseWithoutGC: with the collector off, every block
// descriptor is closed once its block is deleted and its last FileRef is
// closed, on an in-memory disk and on a file-backed one alike.
func TestBlockDescriptorsCloseWithoutGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, d := range map[string]*Disk{"memory": newDisk(t, 1<<20), "file": newFileDisk(t, 1<<20)} {
		t.Run(name, func(t *testing.T) {
			const blocks = 8
			files := int64(blocks)
			if name == "memory" && runtime.GOOS != "linux" {
				files = 0 // heap blocks off Linux
			}
			before := openBlockFiles.Load()
			for part := range blocks {
				if err := d.Write(BlockID{Title: "fds", Part: part}, blockPattern(part, 4096)); err != nil {
					t.Fatal(err)
				}
			}
			if got := openBlockFiles.Load() - before; got != files {
				t.Fatalf("%d descriptors open after writing %d blocks, want %d", got, blocks, files)
			}
			ref, pinned := d.FileRef(BlockID{Title: "fds", Part: 0})
			for part := range blocks {
				if err := d.Delete(BlockID{Title: "fds", Part: part}); err != nil {
					t.Fatal(err)
				}
			}
			if pinned {
				if got := openBlockFiles.Load() - before; got != 1 {
					t.Fatalf("%d descriptors open with one FileRef held past Delete, want 1", got)
				}
				ref.Close()
			}
			if got := openBlockFiles.Load() - before; got != 0 {
				t.Fatalf("%d descriptors still open after Delete and the last Close", got)
			}
		})
	}
}

// TestInMemoryBlocksStayOffHeap writes 64 MiB of in-memory blocks: on Linux
// they are tmpfs files, so the Go heap must not grow with them, or the
// collector's goal would double them.
func TestInMemoryBlocksStayOffHeap(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("in-memory blocks are heap bytes off Linux")
	}
	const blockBytes, blocks = 256 << 10, 256
	d := newDisk(t, blockBytes*blocks)
	data := blockPattern(1, blockBytes)
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
	if err != nil || string(got) != string(data) {
		t.Fatalf("read back %d bytes, err %v", len(got), err)
	}
	for part := range blocks {
		if err := d.Delete(BlockID{Title: "offheap", Part: part}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemoryBlocksHaveNoName: an in-memory block's tmpfs file is unlinked as
// soon as it is created, and Delete has no name to remove.
func TestMemoryBlocksHaveNoName(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("in-memory blocks are tmpfs files on Linux only")
	}
	d := newDisk(t, 1<<20)
	id := BlockID{Title: "anon", Part: 0}
	if err := d.Write(id, []byte("nameless")); err != nil {
		t.Fatal(err)
	}
	b := d.blocks[id]
	if b.path != "" {
		t.Fatalf("memory block keeps a name %q for Delete", b.path)
	}
	if _, err := os.Stat(b.f.Name()); !os.IsNotExist(err) {
		t.Fatalf("tmpfs block file %s still has a name: %v", b.f.Name(), err)
	}
	got, err := d.Read(id)
	if err != nil || string(got) != "nameless" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if err := d.Delete(id); err != nil {
		t.Fatal(err)
	}
}
