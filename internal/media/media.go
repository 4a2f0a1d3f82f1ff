// Package media models video titles and their content. Because the paper's
// algorithms never inspect video bytes — only sizes, bitrates, and cluster
// boundaries — real MPEG assets are replaced by synthetic titles whose
// content at any offset is a pure function of (title name, offset). That
// determinism lets the test suite verify end-to-end integrity: bytes striped
// onto disks, served over the network, and reassembled by a player must equal
// ContentAt for the same ranges.
package media

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"time"
)

// Title describes one video available in the VoD service.
type Title struct {
	// Name is the unique catalog name, e.g. "Zorba the Greek".
	Name string `json:"name"`
	// SizeBytes is the encoded size of the title.
	SizeBytes int64 `json:"sizeBytes"`
	// BitrateMbps is the playback bitrate; it sets both the duration and
	// the minimum delivery rate for stall-free playback.
	BitrateMbps float64 `json:"bitrateMbps"`
}

// Validate checks the title is well formed.
func (t Title) Validate() error {
	if t.Name == "" {
		return errors.New("title has empty name")
	}
	if t.SizeBytes <= 0 {
		return fmt.Errorf("title %q has non-positive size %d", t.Name, t.SizeBytes)
	}
	if t.BitrateMbps <= 0 {
		return fmt.Errorf("title %q has non-positive bitrate %g", t.Name, t.BitrateMbps)
	}
	return nil
}

// Duration returns the playback duration implied by size and bitrate.
func (t Title) Duration() time.Duration {
	seconds := float64(t.SizeBytes*8) / (t.BitrateMbps * 1e6)
	return time.Duration(seconds * float64(time.Second))
}

// seed derives a 64-bit stream seed from the title name.
func seed(name string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	s := h.Sum64()
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return s
}

// blockBytes is the internal generation granularity: content is produced in
// 64-byte blocks so that random access at any offset is cheap.
const blockBytes = 64

// splitmix64 advances a splitmix64 state and returns the next value. It is
// the standard seeding PRNG: fast, full-period, and well distributed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// blockStart returns the splitmix64 state the idx-th block's chain starts
// from.
func blockStart(s uint64, idx int64) uint64 {
	return s ^ (uint64(idx) * 0xd1342543de82ef95)
}

// fillBlock writes the deterministic content of the idx-th 64-byte block of
// the named title into dst (which must be at least blockBytes long): eight
// chained splitmix64 words, each stored little-endian.
func fillBlock(s uint64, idx int64, dst []byte) {
	_ = dst[blockBytes-1]
	state := blockStart(s, idx)
	for i := 0; i < blockBytes; i += 8 {
		state = splitmix64(state)
		binary.LittleEndian.PutUint64(dst[i:], state)
	}
}

// fillBlocks writes the len(dst)/blockBytes whole blocks starting at block
// idx into dst. Each block's word chain is serial, so four blocks advance
// side by side to keep the multipliers busy.
func fillBlocks(s uint64, idx int64, dst []byte) {
	const quad = 4 * blockBytes
	for ; len(dst) >= quad; dst, idx = dst[quad:], idx+4 {
		a, b, c, d := blockStart(s, idx), blockStart(s, idx+1), blockStart(s, idx+2), blockStart(s, idx+3)
		for i := 0; i < blockBytes; i += 8 {
			a, b, c, d = splitmix64(a), splitmix64(b), splitmix64(c), splitmix64(d)
			binary.LittleEndian.PutUint64(dst[i:], a)
			binary.LittleEndian.PutUint64(dst[blockBytes+i:], b)
			binary.LittleEndian.PutUint64(dst[2*blockBytes+i:], c)
			binary.LittleEndian.PutUint64(dst[3*blockBytes+i:], d)
		}
	}
	for ; len(dst) >= blockBytes; dst, idx = dst[blockBytes:], idx+1 {
		fillBlock(s, idx, dst)
	}
}

// ContentAt fills buf with the title's content starting at offset off.
// Offsets past the title's logical size are still defined (the stream is
// infinite); callers bound reads by Title.SizeBytes. Whole blocks are
// generated straight into buf; only an unaligned head or tail goes through a
// temporary block.
func ContentAt(name string, off int64, buf []byte) {
	if len(buf) == 0 {
		return
	}
	if off < 0 {
		panic(fmt.Sprintf("media: negative offset %d", off))
	}
	s := seed(name)
	idx := off / blockBytes
	var block [blockBytes]byte
	if skip := off % blockBytes; skip != 0 {
		fillBlock(s, idx, block[:])
		n := copy(buf, block[skip:])
		buf = buf[n:]
		idx++
	}
	whole := len(buf) / blockBytes
	fillBlocks(s, idx, buf[:whole*blockBytes])
	if tail := buf[whole*blockBytes:]; len(tail) > 0 {
		fillBlock(s, idx+int64(whole), block[:])
		copy(tail, block[:])
	}
}

// Content returns a freshly allocated byte slice with the title's content in
// [off, off+length).
func Content(name string, off, length int64) []byte {
	buf := make([]byte, length)
	ContentAt(name, off, buf)
	return buf
}

// Verify reports whether data equals the title's content at offset off. A
// negative offset never matches: it can arrive from a peer, and the stream
// starts at zero.
func Verify(name string, off int64, data []byte) bool {
	if off < 0 {
		return false
	}
	var chunk [4096]byte
	for len(data) > 0 {
		n := min(len(data), len(chunk))
		ContentAt(name, off, chunk[:n])
		if !bytes.Equal(data[:n], chunk[:n]) {
			return false
		}
		data = data[n:]
		off += int64(n)
	}
	return true
}
