package disk

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func newFileDisk(t *testing.T, capacity int64) *Disk {
	t.Helper()
	d, err := NewFileBacked("fd-0", capacity, t.TempDir())
	if err != nil {
		t.Fatalf("NewFileBacked: %v", err)
	}
	return d
}

func TestFileBackedRoundTrip(t *testing.T) {
	d := newFileDisk(t, 1<<20)
	id := BlockID{Title: "alpha", Part: 3}
	data := bytes.Repeat([]byte{0xAB, 0xCD}, 4096)
	if err := d.Write(id, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !d.FileBacked() {
		t.Fatal("FileBacked() = false for file-backed disk")
	}
	if got := d.Used(); got != int64(len(data)) {
		t.Fatalf("Used = %d, want %d", got, len(data))
	}
	out, err := d.Read(id)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("Read returned different bytes than written")
	}
	dst := make([]byte, len(data)+10)
	n, err := d.ReadInto(id, dst)
	if err != nil {
		t.Fatalf("ReadInto: %v", err)
	}
	if n != len(data) || !bytes.Equal(dst[:n], data) {
		t.Fatal("ReadInto returned different bytes than written")
	}
	if err := d.Delete(id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if d.Used() != 0 {
		t.Fatalf("Used after delete = %d", d.Used())
	}
}

// corruptFile rewrites the single block file under dir via fn.
func corruptFile(t *testing.T, dir string, fn func(path string)) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.blk"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected one block file, got %v (%v)", matches, err)
	}
	fn(matches[0])
}

func TestFileBackedTruncationIsTypedError(t *testing.T) {
	dir := t.TempDir()
	d, err := NewFileBacked("fd-t", 1<<20, dir)
	if err != nil {
		t.Fatalf("NewFileBacked: %v", err)
	}
	id := BlockID{Title: "beta", Part: 0}
	data := bytes.Repeat([]byte{0x5A}, 8192)
	if err := d.Write(id, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	corruptFile(t, dir, func(p string) {
		if err := os.Truncate(p, blockHeaderLen+100); err != nil {
			t.Fatalf("truncate: %v", err)
		}
	})
	if _, err := d.Read(id); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("Read after truncation: err = %v, want ErrCorruptBlock", err)
	}
	dst := make([]byte, len(data))
	if _, err := d.ReadInto(id, dst); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("ReadInto after truncation: err = %v, want ErrCorruptBlock", err)
	}
}

func TestFileBackedCorruptHeaderIsTypedError(t *testing.T) {
	for name, scribble := range map[string]func(*testing.T, string){
		"bad-magic": func(t *testing.T, p string) {
			f, err := os.OpenFile(p, os.O_WRONLY, 0)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte("XXXXXXXX"), 0); err != nil {
				t.Fatalf("scribble: %v", err)
			}
		},
		"bad-size": func(t *testing.T, p string) {
			f, err := os.OpenFile(p, os.O_WRONLY, 0)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 8); err != nil {
				t.Fatalf("scribble: %v", err)
			}
		},
		"headerless": func(t *testing.T, p string) {
			if err := os.Truncate(p, 4); err != nil {
				t.Fatalf("truncate: %v", err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := NewFileBacked("fd-c", 1<<20, dir)
			if err != nil {
				t.Fatalf("NewFileBacked: %v", err)
			}
			id := BlockID{Title: "gamma", Part: 1}
			if err := d.Write(id, bytes.Repeat([]byte{1}, 512)); err != nil {
				t.Fatalf("Write: %v", err)
			}
			corruptFile(t, dir, func(p string) { scribble(t, p) })
			if _, err := d.Read(id); !errors.Is(err, ErrCorruptBlock) {
				t.Fatalf("Read: err = %v, want ErrCorruptBlock", err)
			}
		})
	}
}

func TestFileRefLifecycle(t *testing.T) {
	d := newFileDisk(t, 1<<20)
	id := BlockID{Title: "delta", Part: 2}
	data := bytes.Repeat([]byte{7}, 2048)
	if err := d.Write(id, data); err != nil {
		t.Fatalf("Write: %v", err)
	}

	ref, ok := d.FileRef(id)
	if !ok {
		t.Fatal("FileRef refused on a file-backed block")
	}
	if ref.Size() != int64(len(data)) || ref.Offset() != blockHeaderLen {
		t.Fatalf("ref geometry = (off %d, size %d)", ref.Offset(), ref.Size())
	}
	// The pin must keep the descriptor readable across a concurrent Delete.
	if err := d.Delete(id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	got := make([]byte, ref.Size())
	if _, err := ref.File().ReadAt(got, ref.Offset()); err != nil {
		t.Fatalf("ReadAt after Delete with pin held: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("pinned read returned wrong bytes")
	}
	ref.Close()
	// Last ref dropped: the descriptor is closed now.
	if _, err := ref.File().ReadAt(got[:1], ref.Offset()); err == nil {
		t.Fatal("descriptor still open after final Close")
	}
}

func TestFileRefRefusals(t *testing.T) {
	mem, err := New("mem-0", 1<<20)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	id := BlockID{Title: "eps", Part: 0}
	if err := mem.Write(id, []byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// On Linux an in-memory block is a tmpfs file and is sent like any
	// other; elsewhere it is heap bytes with no descriptor to hand out.
	ref, ok := mem.FileRef(id)
	if ok != (runtime.GOOS == "linux") {
		t.Fatalf("FileRef on a memory-backed disk granted=%v on %s", ok, runtime.GOOS)
	}
	if ok {
		got := make([]byte, ref.Size())
		if _, err := ref.File().ReadAt(got, ref.Offset()); err != nil || string(got) != "hello" {
			t.Fatalf("memory block through its FileRef: %q, %v", got, err)
		}
		ref.Close()
	}

	fd := newFileDisk(t, 1<<20)
	if _, ok := fd.FileRef(id); ok {
		t.Fatal("FileRef granted for an absent block")
	}
	if err := fd.Write(id, []byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// An armed fault injector must force the buffered path.
	fd.SetReadInterceptor(func(BlockID) ReadFault { return ReadFault{} })
	if _, ok := fd.FileRef(id); ok {
		t.Fatal("FileRef granted while a ReadInterceptor is installed")
	}
	fd.SetReadInterceptor(nil)
	ref, ok = fd.FileRef(id)
	if !ok {
		t.Fatal("FileRef refused after interceptor removed")
	}
	ref.Close()
}

func TestFileBackedInterceptorFaults(t *testing.T) {
	d := newFileDisk(t, 1<<20)
	id := BlockID{Title: "zeta", Part: 0}
	data := bytes.Repeat([]byte{9}, 1000)
	if err := d.Write(id, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	d.SetReadInterceptor(func(BlockID) ReadFault { return ReadFault{ShortFraction: 0.5} })
	out, err := d.Read(id)
	if !errors.Is(err, ErrInjectedRead) {
		t.Fatalf("Read: err = %v, want ErrInjectedRead", err)
	}
	if len(out) != 500 {
		t.Fatalf("short read returned %d bytes, want 500", len(out))
	}
}

func TestNewUniformFileArray(t *testing.T) {
	dir := t.TempDir()
	arr, err := NewUniformFileArray("srv1", 3, 1<<20, dir)
	if err != nil {
		t.Fatalf("NewUniformFileArray: %v", err)
	}
	if arr.NumDisks() != 3 {
		t.Fatalf("NumDisks = %d", arr.NumDisks())
	}
	for i := range 3 {
		d, err := arr.Disk(i)
		if err != nil {
			t.Fatalf("Disk(%d): %v", i, err)
		}
		if !d.FileBacked() {
			t.Fatalf("disk %d not file-backed", i)
		}
	}
}

func TestBlockFileNameEscapesHostilePaths(t *testing.T) {
	dir := t.TempDir()
	d, err := NewFileBacked("fd-h", 1<<20, dir)
	if err != nil {
		t.Fatalf("NewFileBacked: %v", err)
	}
	id := BlockID{Title: "../../etc/passwd", Part: 0}
	if err := d.Write(id, []byte("x")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*.blk"))
	if len(matches) != 1 {
		t.Fatalf("block file not confined to disk dir: %v", matches)
	}
	out, err := d.Read(id)
	if err != nil || string(out) != "x" {
		t.Fatalf("Read: %q, %v", out, err)
	}
}
