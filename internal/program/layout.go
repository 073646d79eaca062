package program

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Layout allocates regions of the flat simulated data memory and builds
// the initial memory image a workload runs against. All multi-byte values
// are little-endian.
type Layout struct {
	mem   []byte
	next  uint64
	align uint64
}

// NewLayout returns an empty layout. Allocations are aligned to 64 bytes
// (one cache line) so that independently-written arrays never share lines.
func NewLayout() *Layout {
	return &Layout{align: 64}
}

// grow extends the image with zeros to at least to bytes. Appending
// amortizes the copies, so a layout of many arrays copies its image a
// few times rather than once per array.
func (l *Layout) grow(to uint64) {
	if n := uint64(len(l.mem)); n < to {
		l.mem = append(l.mem, make([]byte, to-n)...)
	}
}

// Alloc reserves size bytes and returns the base address of the region.
func (l *Layout) Alloc(size uint64) uint64 {
	base := (l.next + l.align - 1) &^ (l.align - 1)
	l.next = base + size
	l.grow(l.next)
	return base
}

// AllocU32 reserves an array of n uint32 values, initializing it from vals
// (which may be shorter than n), and returns the base address.
func (l *Layout) AllocU32(n int, vals []uint32) uint64 {
	base := l.Alloc(uint64(n) * 4)
	for i, v := range vals {
		l.PutU32(base+uint64(i)*4, v)
	}
	return base
}

// AllocU64 reserves an array of n uint64 values, initializing it from vals,
// and returns the base address.
func (l *Layout) AllocU64(n int, vals []uint64) uint64 {
	base := l.Alloc(uint64(n) * 8)
	for i, v := range vals {
		l.PutU64(base+uint64(i)*8, v)
	}
	return base
}

// AllocF64 reserves an array of n float64 values, initializing it from
// vals, and returns the base address.
func (l *Layout) AllocF64(n int, vals []float64) uint64 {
	base := l.Alloc(uint64(n) * 8)
	for i, v := range vals {
		l.PutU64(base+uint64(i)*8, math.Float64bits(v))
	}
	return base
}

// PutU32 writes v at addr.
func (l *Layout) PutU32(addr uint64, v uint32) {
	l.grow(addr + 4)
	binary.LittleEndian.PutUint32(l.mem[addr:], v)
}

// PutU64 writes v at addr.
func (l *Layout) PutU64(addr uint64, v uint64) {
	l.grow(addr + 8)
	binary.LittleEndian.PutUint64(l.mem[addr:], v)
}

// Image returns the initial memory image, with its capacity trimmed to
// its length. The slice is owned by the caller; the layout must not be
// reused after Image is taken.
func (l *Layout) Image() []byte { return l.mem[:len(l.mem):len(l.mem)] }

// Size returns the current image size in bytes.
func (l *Layout) Size() uint64 { return uint64(len(l.mem)) }

// ReadU32 reads a uint32 from a memory image (test/validation helper).
func ReadU32(mem []byte, addr uint64) uint32 {
	return binary.LittleEndian.Uint32(mem[addr:])
}

// ReadU64 reads a uint64 from a memory image.
func ReadU64(mem []byte, addr uint64) uint64 {
	return binary.LittleEndian.Uint64(mem[addr:])
}

// ReadF64 reads a float64 from a memory image.
func ReadF64(mem []byte, addr uint64) float64 {
	return math.Float64frombits(ReadU64(mem, addr))
}

// String summarizes the layout for diagnostics.
func (l *Layout) String() string {
	return fmt.Sprintf("layout{%d bytes}", len(l.mem))
}
