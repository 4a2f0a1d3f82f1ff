package media

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestTitleValidate(t *testing.T) {
	good := Title{Name: "x", SizeBytes: 1, BitrateMbps: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate(good): %v", err)
	}
	bad := []Title{
		{Name: "", SizeBytes: 1, BitrateMbps: 1},
		{Name: "x", SizeBytes: 0, BitrateMbps: 1},
		{Name: "x", SizeBytes: 1, BitrateMbps: 0},
		{Name: "x", SizeBytes: -4, BitrateMbps: 1},
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", b)
		}
	}
}

func TestTitleDuration(t *testing.T) {
	// 1.5 Mbps, 1.5e6 bits = 187500 bytes → exactly 1 second.
	tt := Title{Name: "x", SizeBytes: 187500, BitrateMbps: 1.5}
	if d := tt.Duration(); d != time.Second {
		t.Fatalf("Duration = %v, want 1s", d)
	}
}

func TestContentDeterministic(t *testing.T) {
	a := Content("movie", 0, 1024)
	b := Content("movie", 0, 1024)
	if !bytes.Equal(a, b) {
		t.Fatal("same title/offset produced different content")
	}
	c := Content("other", 0, 1024)
	if bytes.Equal(a, c) {
		t.Fatal("different titles produced identical content")
	}
}

func TestContentRandomAccessConsistency(t *testing.T) {
	whole := Content("movie", 0, 4096)
	for _, tc := range []struct{ off, n int64 }{
		{0, 1}, {1, 63}, {63, 2}, {64, 64}, {100, 1000}, {4000, 96}, {17, 4079},
	} {
		part := Content("movie", tc.off, tc.n)
		if !bytes.Equal(part, whole[tc.off:tc.off+tc.n]) {
			t.Fatalf("Content(%d,%d) disagrees with prefix read", tc.off, tc.n)
		}
	}
}

func TestContentAtEmptyAndNegative(t *testing.T) {
	ContentAt("x", 0, nil) // must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("negative offset did not panic")
		}
	}()
	ContentAt("x", -1, make([]byte, 1))
}

func TestVerify(t *testing.T) {
	data := Content("movie", 100, 5000)
	if !Verify("movie", 100, data) {
		t.Fatal("Verify rejected correct content")
	}
	data[4321] ^= 0xff
	if Verify("movie", 100, data) {
		t.Fatal("Verify accepted corrupted content")
	}
	if !Verify("movie", 0, nil) {
		t.Fatal("Verify rejected empty slice")
	}
	if Verify("movie", -1, Content("movie", 0, 1)) || Verify("movie", -1, nil) {
		t.Fatal("Verify accepted a negative offset")
	}
}

// Property: concatenating two adjacent reads equals one combined read.
func TestContentConcatenationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		off := r.Int63n(10000)
		n1 := 1 + r.Int63n(500)
		n2 := 1 + r.Int63n(500)
		joined := Content("prop-title", off, n1+n2)
		a := Content("prop-title", off, n1)
		b := Content("prop-title", off+n1, n2)
		return bytes.Equal(joined, append(a, b...))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: content is incompressible-ish — byte value distribution is not
// degenerate (no single byte value dominates a large sample).
func TestContentDistribution(t *testing.T) {
	data := Content("distribution", 0, 1<<16)
	var counts [256]int
	for _, b := range data {
		counts[b]++
	}
	for v, c := range counts {
		if c > len(data)/32 {
			t.Fatalf("byte value %d appears %d times in %d bytes", v, c, len(data))
		}
	}
}

func TestGenerateLibrary(t *testing.T) {
	spec := DefaultLibrarySpec()
	rng := rand.New(rand.NewSource(42))
	lib, err := GenerateLibrary(spec, rng)
	if err != nil {
		t.Fatalf("GenerateLibrary: %v", err)
	}
	if len(lib) != spec.Count {
		t.Fatalf("library size = %d, want %d", len(lib), spec.Count)
	}
	seen := map[string]bool{}
	for _, title := range lib {
		if err := title.Validate(); err != nil {
			t.Fatalf("generated invalid title: %v", err)
		}
		if title.SizeBytes < spec.MinBytes || title.SizeBytes > spec.MaxBytes {
			t.Fatalf("size %d outside [%d,%d]", title.SizeBytes, spec.MinBytes, spec.MaxBytes)
		}
		if seen[title.Name] {
			t.Fatalf("duplicate title name %s", title.Name)
		}
		seen[title.Name] = true
	}
	// Deterministic for a fixed seed.
	lib2, err := GenerateLibrary(spec, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range lib {
		if lib[i] != lib2[i] {
			t.Fatalf("library not deterministic at %d: %+v vs %+v", i, lib[i], lib2[i])
		}
	}
}

func TestGenerateLibraryValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []LibrarySpec{
		{Count: 0, MinBytes: 1, MaxBytes: 2},
		{Count: 1, MinBytes: 0, MaxBytes: 2},
		{Count: 1, MinBytes: 5, MaxBytes: 2},
	}
	for _, spec := range bad {
		if _, err := GenerateLibrary(spec, rng); err == nil {
			t.Fatalf("GenerateLibrary accepted %+v", spec)
		}
	}
	// Defaults applied.
	lib, err := GenerateLibrary(LibrarySpec{Count: 1, MinBytes: 10, MaxBytes: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if lib[0].BitrateMbps != 1.5 {
		t.Fatalf("default bitrate = %g, want 1.5", lib[0].BitrateMbps)
	}
}

// refContentAt is the byte-at-a-time generator the word-at-a-time kernel
// replaced, kept as the oracle ContentAt must match byte for byte.
func refContentAt(name string, off int64, buf []byte) {
	s := seed(name)
	var block [blockBytes]byte
	idx := off / blockBytes
	skip := off % blockBytes
	written := 0
	for written < len(buf) {
		state := s ^ (uint64(idx) * 0xd1342543de82ef95)
		for i := 0; i < blockBytes; i += 8 {
			state = splitmix64(state)
			for j := range 8 {
				block[i+j] = byte(state >> (8 * j))
			}
		}
		written += copy(buf[written:], block[skip:])
		skip = 0
		idx++
	}
}

// TestContentAtMatchesReference crosses every block and 4 KiB edge case the
// kernel splits on: unaligned heads, whole blocks, unaligned tails.
func TestContentAtMatchesReference(t *testing.T) {
	offs := []int64{0, 1, 7, 8, 63, 64, 65, 127, 4031, 4095, 4096, 4097, 1 << 20, 1<<20 + 33}
	lens := []int{0, 1, 7, 8, 9, 56, 63, 64, 65, 128, 129, 4095, 4096, 4097, 8191, 65536 + 3}
	for _, off := range offs {
		for _, n := range lens {
			got := make([]byte, n)
			want := make([]byte, n)
			ContentAt("oracle", off, got)
			refContentAt("oracle", off, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("ContentAt(off=%d, len=%d) differs from the reference", off, n)
			}
			if !Verify("oracle", off, want) {
				t.Fatalf("Verify(off=%d, len=%d) rejected reference content", off, n)
			}
		}
	}
}

// TestContentPinned pins the FNV-64a hash of fixed ranges, so the kernel and
// refContentAt cannot drift together. The last range is a whole title of the
// bench dma_churn workload.
func TestContentPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		off, n int64
		want   uint64
	}{
		{"movie", 0, 4096, 0xbdcfed91f6844048},
		{"movie", 1, 63, 0x6079eb6743cbd610},
		{"prop-title", 4095, 70001, 0x67ad6d5301789f51},
		{"Zorba the Greek", 1 << 20, 262144 + 17, 0xf0ac119f166349d6},
		{"dma_churn-00", 0, 4 << 20, 0xdfcb4133cc832818},
	} {
		h := fnv.New64a()
		_, _ = h.Write(Content(tc.name, tc.off, tc.n))
		if got := h.Sum64(); got != tc.want {
			t.Errorf("FNV-64a of %q [%d, +%d) = %#x, want %#x", tc.name, tc.off, tc.n, got, tc.want)
		}
	}
}

// TestVerifyRejectsOneFlippedBit flips one bit at each edge Verify handles
// apart: the first and last byte, inside an unaligned head and tail.
func TestVerifyRejectsOneFlippedBit(t *testing.T) {
	const off, n = 61, 3*4096 + 70 // head of 3 bytes, tail of 11
	data := Content("flip", off, n)
	for _, at := range []int{0, n - 1, 2, n - 5, 4096} {
		for bit := range 8 {
			data[at] ^= 1 << bit
			if Verify("flip", off, data) {
				t.Fatalf("Verify accepted bit %d flipped at byte %d", bit, at)
			}
			data[at] ^= 1 << bit
		}
	}
	if !Verify("flip", off, data) {
		t.Fatal("Verify rejected restored content")
	}
}

func TestContentAtAndVerifyDoNotAllocate(t *testing.T) {
	buf := make([]byte, 10000)
	for _, name := range []string{"alloc", "a title name longer than thirty-two bytes"} {
		if a := testing.AllocsPerRun(20, func() { ContentAt(name, 3, buf) }); a != 0 {
			t.Fatalf("ContentAt(%q) allocated %v times per call", name, a)
		}
		if a := testing.AllocsPerRun(20, func() { Verify(name, 3, buf) }); a != 0 {
			t.Fatalf("Verify(%q) allocated %v times per call", name, a)
		}
	}
}

func FuzzContentAt(f *testing.F) {
	f.Add("movie", int64(0), uint16(4096))
	f.Add("x", int64(63), uint16(66))
	f.Add("dma_churn-00", int64(1<<20+1), uint16(200))
	f.Fuzz(func(t *testing.T, name string, off int64, n uint16) {
		if off < 0 {
			off = -(off + 1)
		}
		if off > 1<<40 {
			off %= 1 << 40
		}
		got := make([]byte, n)
		want := make([]byte, n)
		ContentAt(name, off, got)
		refContentAt(name, off, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("ContentAt(%q, %d, %d) differs from the reference", name, off, n)
		}
		if !Verify(name, off, want) {
			t.Fatalf("Verify(%q, %d, %d) rejected reference content", name, off, n)
		}
	})
}

func BenchmarkContentAt(b *testing.B) {
	buf := make([]byte, 256<<10)
	b.SetBytes(int64(len(buf)))
	for b.Loop() {
		ContentAt("bench", 0, buf)
	}
}

func BenchmarkVerify(b *testing.B) {
	data := Content("bench", 0, 256<<10)
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		if !Verify("bench", 0, data) {
			b.Fatal("Verify rejected its own content")
		}
	}
}
