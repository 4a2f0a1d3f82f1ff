package disk

import (
	"errors"
	"runtime"
	"sync"
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
// deletes and rewrites blocks while another forces collections, so block
// memory is released and reused under the readers. Every read must return
// the whole, correct block or ErrBlockUnknown.
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
	churn.Add(2)
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
	go func() { // collector: run cleanups of deleted blocks
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, blockBytes)
			for i := range rounds {
				p := (r + i) % parts
				n, err := d.ReadInto(BlockID{Title: "race", Part: p}, buf)
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
}
