// Package sharedmem models the shared internal SRAM of the OMAP5912
// (250 Kbytes) through which the ARM master and the DSP slave exchange
// data. Accesses are bounds-checked, little-endian, and can be observed
// through write watchpoints — the hook the bug detector and the
// Figure 1 reproduction use to see the shared flags change.
package sharedmem

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// DefaultSize is the OMAP5912's shared internal SRAM size: 250 KB.
const DefaultSize = 250 * 1024

// AccessError reports an out-of-bounds access.
type AccessError struct {
	Op   string
	Addr uint32
	Size int
	Cap  int
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("sharedmem: %s of %d bytes at 0x%x exceeds %d-byte SRAM",
		e.Op, e.Size, e.Addr, e.Cap)
}

// Region is a named allocation within the SRAM.
type Region struct {
	Name string
	Base uint32
	Size uint32
}

// End returns the first address past the region.
func (r Region) End() uint32 { return r.Base + r.Size }

// watch is a registered write watchpoint.
type watch struct {
	base uint32
	size uint32
	fn   func(addr uint32, size int)
}

// Memory is the simulated SRAM. Not safe for concurrent use; the
// co-simulation is single-threaded by design.
//
// Only the prefix up to the highest byte written is backed by host
// memory; every byte past it reads as zero. A stress trial writes a few
// hundred bytes to a few KB of the 250 KB, and a platform is booted per
// trial, so backing the whole SRAM would dominate what a trial
// allocates. Bounds are always checked against the full capacity.
type Memory struct {
	data    []byte // the written prefix; bytes past it are zero
	size    int    // capacity in bytes
	regions []Region
	next    uint32
	watches []watch
}

// New returns a zeroed SRAM of the given size (DefaultSize if size <= 0).
func New(size int) *Memory {
	if size <= 0 {
		size = DefaultSize
	}
	return &Memory{size: size}
}

// Size returns the SRAM capacity in bytes.
func (m *Memory) Size() int { return m.size }

// Alloc reserves a fresh region of the given size at the lowest free
// address (bump allocation; regions are never freed — the platform's
// layout is fixed at boot, as on the real middleware).
func (m *Memory) Alloc(name string, size uint32) (Region, error) {
	if size == 0 {
		return Region{}, fmt.Errorf("sharedmem: zero-size region %q", name)
	}
	if m.next+size > uint32(m.size) || m.next+size < m.next {
		return Region{}, fmt.Errorf("sharedmem: out of SRAM allocating %d bytes for %q (used %d of %d)",
			size, name, m.next, m.size)
	}
	r := Region{Name: name, Base: m.next, Size: size}
	m.next += size
	m.regions = append(m.regions, r)
	return r, nil
}

// Regions returns the allocated regions ordered by base address.
func (m *Memory) Regions() []Region {
	out := append([]Region{}, m.regions...)
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

// Used returns the number of bytes allocated so far.
func (m *Memory) Used() uint32 { return m.next }

func (m *Memory) check(op string, addr uint32, size int) error {
	if int(addr)+size > m.size || int(addr) < 0 {
		return &AccessError{Op: op, Addr: addr, Size: size, Cap: m.size}
	}
	return nil
}

// span returns the size bytes at addr for reading. A span reaching past
// the written prefix is copied into buf, which must be zero, so the
// bytes past the prefix read as zero.
func (m *Memory) span(addr uint32, size int, buf []byte) []byte {
	if end := int(addr) + size; end <= len(m.data) {
		return m.data[addr:end]
	}
	if int(addr) < len(m.data) {
		copy(buf, m.data[addr:])
	}
	return buf[:size]
}

// grow extends the written prefix to cover size bytes at addr and
// returns them for writing.
func (m *Memory) grow(addr uint32, size int) []byte {
	end := int(addr) + size
	if end > len(m.data) {
		if end > cap(m.data) {
			// Bytes past len are zero in a fresh backing array, and the
			// prefix never shrinks, so reslicing exposes only zeros.
			m.data = slices.Grow(m.data, max(end, min(2*len(m.data), m.size))-len(m.data))
		}
		m.data = m.data[:end]
	}
	return m.data[addr:end]
}

func (m *Memory) notify(addr uint32, size int) {
	for _, w := range m.watches {
		if addr < w.base+w.size && addr+uint32(size) > w.base {
			w.fn(addr, size)
		}
	}
}

// OnWrite registers fn to run after any write overlapping [base, base+size).
func (m *Memory) OnWrite(base, size uint32, fn func(addr uint32, size int)) {
	m.watches = append(m.watches, watch{base: base, size: size, fn: fn})
}

// Read8 reads one byte.
func (m *Memory) Read8(addr uint32) (byte, error) {
	if err := m.check("read", addr, 1); err != nil {
		return 0, err
	}
	if int(addr) >= len(m.data) {
		return 0, nil
	}
	return m.data[addr], nil
}

// Write8 writes one byte.
func (m *Memory) Write8(addr uint32, v byte) error {
	if err := m.check("write", addr, 1); err != nil {
		return err
	}
	m.grow(addr, 1)[0] = v
	m.notify(addr, 1)
	return nil
}

// Read16 reads a little-endian 16-bit value.
func (m *Memory) Read16(addr uint32) (uint16, error) {
	if err := m.check("read", addr, 2); err != nil {
		return 0, err
	}
	var buf [2]byte
	return binary.LittleEndian.Uint16(m.span(addr, 2, buf[:])), nil
}

// Write16 writes a little-endian 16-bit value.
func (m *Memory) Write16(addr uint32, v uint16) error {
	if err := m.check("write", addr, 2); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(m.grow(addr, 2), v)
	m.notify(addr, 2)
	return nil
}

// Read32 reads a little-endian 32-bit value.
func (m *Memory) Read32(addr uint32) (uint32, error) {
	if err := m.check("read", addr, 4); err != nil {
		return 0, err
	}
	var buf [4]byte
	return binary.LittleEndian.Uint32(m.span(addr, 4, buf[:])), nil
}

// Write32 writes a little-endian 32-bit value.
func (m *Memory) Write32(addr uint32, v uint32) error {
	if err := m.check("write", addr, 4); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(m.grow(addr, 4), v)
	m.notify(addr, 4)
	return nil
}

// ReadBytes copies size bytes starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr uint32, size int) ([]byte, error) {
	if err := m.check("read", addr, size); err != nil {
		return nil, err
	}
	out := make([]byte, size)
	if int(addr) < len(m.data) {
		copy(out, m.data[addr:])
	}
	return out, nil
}

// WriteBytes copies b into the SRAM at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) error {
	if err := m.check("write", addr, len(b)); err != nil {
		return err
	}
	copy(m.grow(addr, len(b)), b)
	m.notify(addr, len(b))
	return nil
}

// Fill sets size bytes from addr to v.
func (m *Memory) Fill(addr uint32, size int, v byte) error {
	if err := m.check("write", addr, size); err != nil {
		return err
	}
	dst := m.grow(addr, size)
	for i := range dst {
		dst[i] = v
	}
	m.notify(addr, size)
	return nil
}
