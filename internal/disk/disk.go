// Package disk simulates the video servers' storage hardware: individual
// disks with fixed capacity holding named blocks, grouped into the
// multi-disk arrays the paper's DMA stripes titles across. Capacity
// accounting is exact. Every block lives in a file of its own, so the
// delivery plane can hand bodies straight to sendfile(2) via FileRef: named
// under a directory for disks built with NewFileBacked, and for in-memory
// disks (tests and experiments use scaled-down title sizes) an unlinked
// tmpfs file on Linux or plain heap bytes elsewhere. A simple service-time
// model provides read latencies for the emulated plane.
package disk

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// BlockID names one stored block: a part (stripe) of a title.
type BlockID struct {
	Title string `json:"title"`
	Part  int    `json:"part"`
}

// String renders the block id for logs.
func (b BlockID) String() string { return fmt.Sprintf("%s#%d", b.Title, b.Part) }

// Errors reported by disks and arrays.
var (
	ErrDiskFull      = errors.New("disk full")
	ErrBlockExists   = errors.New("block already stored")
	ErrBlockUnknown  = errors.New("block not stored")
	ErrNoDisks       = errors.New("array has no disks")
	ErrBadDiskIndex  = errors.New("disk index out of range")
	ErrBadCapacity   = errors.New("capacity must be positive")
	ErrEmptyBlockNil = errors.New("block data must be non-empty")
	// ErrInjectedRead reports a read that an installed ReadInterceptor
	// failed or truncated (fault injection).
	ErrInjectedRead = errors.New("injected read fault")
)

// ReadFault is a ReadInterceptor's verdict for one block read. The zero
// value lets the read proceed untouched. Err fails the read outright; a
// ShortFraction in (0, 1) truncates the returned data to that fraction of
// the block, surfacing as an ErrInjectedRead-wrapped error alongside the
// partial byte count — the torn read a resilient delivery path must detect.
type ReadFault struct {
	ShortFraction float64
	Err           error
}

// ReadInterceptor inspects each block read before it happens and may inject
// a fault. It is called outside the disk's lock and may block (fault
// injectors use that to model latency and stalls).
type ReadInterceptor func(BlockID) ReadFault

// AccessModel is the disk service-time model: a fixed positioning (seek +
// rotational) delay plus transfer at a sustained rate.
type AccessModel struct {
	Seek           time.Duration
	ThroughputMBps float64
}

// DefaultAccessModel approximates a late-1990s SCSI disk: 9 ms positioning,
// 15 MB/s sustained.
func DefaultAccessModel() AccessModel {
	return AccessModel{Seek: 9 * time.Millisecond, ThroughputMBps: 15}
}

// ReadTime returns the modeled time to read n bytes.
func (m AccessModel) ReadTime(n int64) time.Duration {
	if n <= 0 {
		return m.Seek
	}
	if m.ThroughputMBps <= 0 {
		return m.Seek
	}
	sec := float64(n) / (m.ThroughputMBps * 1e6)
	return m.Seek + time.Duration(sec*float64(time.Second))
}

// Disk is a single simulated disk. All methods are safe for concurrent use.
type Disk struct {
	id       string
	capacity int64
	model    AccessModel
	// intercept optionally injects faults into reads (set via
	// SetReadInterceptor; consulted lock-free on the read hot path).
	intercept atomic.Pointer[ReadInterceptor]
	// dir, when non-empty, makes the disk file-backed: blocks live in one
	// file each under dir instead of in memory (see NewFileBacked).
	dir string

	mu     sync.Mutex
	used   int64
	blocks map[BlockID]*block
}

// New returns a disk with the given identifier and capacity in bytes.
func New(id string, capacityBytes int64) (*Disk, error) {
	if capacityBytes <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadCapacity, capacityBytes)
	}
	return &Disk{
		id:       id,
		capacity: capacityBytes,
		model:    DefaultAccessModel(),
		blocks:   make(map[BlockID]*block),
	}, nil
}

// ID returns the disk identifier.
func (d *Disk) ID() string { return d.id }

// Capacity returns total capacity in bytes.
func (d *Disk) Capacity() int64 { return d.capacity }

// Used returns bytes currently stored.
func (d *Disk) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Free returns remaining capacity in bytes.
func (d *Disk) Free() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.capacity - d.used
}

// NumBlocks returns how many blocks are stored.
func (d *Disk) NumBlocks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.blocks)
}

// Write stores a block. It fails with ErrDiskFull when the block does not
// fit and ErrBlockExists when the id is already present.
func (d *Disk) Write(id BlockID, data []byte) error {
	if len(data) == 0 {
		return ErrEmptyBlockNil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.blocks[id]; ok {
		return fmt.Errorf("%w: %s on %s", ErrBlockExists, id, d.id)
	}
	if d.used+int64(len(data)) > d.capacity {
		return fmt.Errorf("%w: %s needs %d, %s has %d free",
			ErrDiskFull, id, len(data), d.id, d.capacity-d.used)
	}
	var b *block
	var err error
	if d.dir != "" {
		b, err = writeBlockFile(d.dir, id, data)
	} else {
		b, err = newMemBlock(data)
	}
	if err != nil {
		return fmt.Errorf("write %s on %s: %w", id, d.id, err)
	}
	b.refs.Store(1)
	d.blocks[id] = b
	d.used += int64(len(data))
	return nil
}

// SetReadInterceptor installs (or, with nil, removes) a fault-injection hook
// consulted before every Read/ReadInto. The interceptor runs outside the
// disk's lock and may block.
func (d *Disk) SetReadInterceptor(f ReadInterceptor) {
	if f == nil {
		d.intercept.Store(nil)
		return
	}
	d.intercept.Store(&f)
}

// readFault consults the interceptor for one read; the zero fault means
// proceed.
func (d *Disk) readFault(id BlockID) ReadFault {
	if p := d.intercept.Load(); p != nil {
		return (*p)(id)
	}
	return ReadFault{}
}

// Read returns a copy of the block's data.
func (d *Disk) Read(id BlockID) ([]byte, error) {
	fault := d.readFault(id)
	if fault.Err != nil {
		return nil, fmt.Errorf("read %s on %s: %w: %w", id, d.id, ErrInjectedRead, fault.Err)
	}
	b, err := d.pin(id)
	if err != nil {
		return nil, err
	}
	defer b.release()
	out := make([]byte, b.size)
	if err := readBlockInto(b, id, d.id, out); err != nil {
		return nil, err
	}
	if fault.ShortFraction > 0 && fault.ShortFraction < 1 {
		n := int(fault.ShortFraction * float64(len(out)))
		return out[:n], fmt.Errorf("read %s on %s: %w: short read %d of %d bytes",
			id, d.id, ErrInjectedRead, n, len(out))
	}
	return out, nil
}

// ReadInto copies the block's data into dst — the allocation-free read the
// delivery plane's pooled-buffer pipeline uses — and returns the block size.
// dst must be at least the block size.
func (d *Disk) ReadInto(id BlockID, dst []byte) (int, error) {
	fault := d.readFault(id)
	if fault.Err != nil {
		return 0, fmt.Errorf("read %s on %s: %w: %w", id, d.id, ErrInjectedRead, fault.Err)
	}
	b, err := d.pin(id)
	if err != nil {
		return 0, err
	}
	defer b.release()
	if int64(len(dst)) < b.size {
		return 0, fmt.Errorf("read %s on %s: buffer %d bytes, block %d",
			id, d.id, len(dst), b.size)
	}
	if err := readBlockInto(b, id, d.id, dst[:b.size]); err != nil {
		return 0, err
	}
	n := int(b.size)
	if fault.ShortFraction > 0 && fault.ShortFraction < 1 {
		short := int(fault.ShortFraction * float64(n))
		return short, fmt.Errorf("read %s on %s: %w: short read %d of %d bytes",
			id, d.id, ErrInjectedRead, short, n)
	}
	return n, nil
}

// pin returns the stored block with one more reference, so its descriptor
// stays open after the lock drops even if Delete runs meanwhile. The caller
// must release it.
func (d *Disk) pin(id BlockID) (*block, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrBlockUnknown, id, d.id)
	}
	b.refs.Add(1)
	return b, nil
}

// Has reports whether the block is stored.
func (d *Disk) Has(id BlockID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.blocks[id]
	return ok
}

// Delete removes a block, freeing its space. A file-backed block's file is
// unlinked immediately (a tmpfs block has no name left to unlink). Its
// descriptor closes here, or when the last in-flight pin — a FileRef or a
// read — is released, and that close frees the bytes.
func (d *Disk) Delete(id BlockID) error {
	d.mu.Lock()
	b, ok := d.blocks[id]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s on %s", ErrBlockUnknown, id, d.id)
	}
	delete(d.blocks, id)
	d.used -= b.size
	d.mu.Unlock()
	if b.path != "" {
		_ = os.Remove(b.path)
	}
	b.release()
	return nil
}

// ReadTime returns the modeled service time for reading the block.
func (d *Disk) ReadTime(id BlockID) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.blocks[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s on %s", ErrBlockUnknown, id, d.id)
	}
	return d.model.ReadTime(b.size), nil
}

// SetAccessModel replaces the disk's service-time model.
func (d *Disk) SetAccessModel(m AccessModel) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.model = m
}

// Blocks returns the stored block IDs, sorted by title then part.
func (d *Disk) Blocks() []BlockID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]BlockID, 0, len(d.blocks))
	for id := range d.blocks {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Title != out[j].Title {
			return out[i].Title < out[j].Title
		}
		return out[i].Part < out[j].Part
	})
	return out
}

// Array is an ordered group of disks: the striping unit of one video server.
// The paper recommends "the use of as many disks as possible".
type Array struct {
	disks []*Disk
}

// NewArray groups pre-built disks. The order defines stripe placement.
func NewArray(disks ...*Disk) (*Array, error) {
	if len(disks) == 0 {
		return nil, ErrNoDisks
	}
	return &Array{disks: append([]*Disk(nil), disks...)}, nil
}

// NewUniformArray builds an array of n identical disks named
// "<prefix>-0".."<prefix>-n-1".
func NewUniformArray(prefix string, n int, capacityBytes int64) (*Array, error) {
	if n <= 0 {
		return nil, ErrNoDisks
	}
	disks := make([]*Disk, n)
	for i := range n {
		d, err := New(fmt.Sprintf("%s-%d", prefix, i), capacityBytes)
		if err != nil {
			return nil, err
		}
		disks[i] = d
	}
	return NewArray(disks...)
}

// NumDisks returns the number of disks in the array.
func (a *Array) NumDisks() int { return len(a.disks) }

// SetReadInterceptor installs (or removes, with nil) a fault-injection hook
// on every disk of the array.
func (a *Array) SetReadInterceptor(f ReadInterceptor) {
	for _, d := range a.disks {
		d.SetReadInterceptor(f)
	}
}

// Disk returns the i-th disk.
func (a *Array) Disk(i int) (*Disk, error) {
	if i < 0 || i >= len(a.disks) {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadDiskIndex, i, len(a.disks))
	}
	return a.disks[i], nil
}

// Capacity returns the summed capacity of all disks.
func (a *Array) Capacity() int64 {
	var total int64
	for _, d := range a.disks {
		total += d.Capacity()
	}
	return total
}

// Used returns the summed stored bytes of all disks.
func (a *Array) Used() int64 {
	var total int64
	for _, d := range a.disks {
		total += d.Used()
	}
	return total
}

// Free returns the summed free bytes of all disks.
func (a *Array) Free() int64 { return a.Capacity() - a.Used() }
