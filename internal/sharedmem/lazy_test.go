package sharedmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// Memory backs only the written prefix of the SRAM with host memory.
// These tests pin that the laziness is invisible: capacity, bounds,
// error values, zero reads and watchpoints behave as for a fully
// allocated SRAM.

func TestLazySRAMReportsFullCapacity(t *testing.T) {
	m := New(0)
	if m.Size() != DefaultSize || DefaultSize != 250*1024 {
		t.Fatalf("Size %d, want %d", m.Size(), 250*1024)
	}
	_, err := m.Read32(DefaultSize)
	var ae *AccessError
	if !errors.As(err, &ae) || ae.Cap != DefaultSize {
		t.Fatalf("AccessError %+v, want Cap %d", err, DefaultSize)
	}
}

func TestLazySRAMBacksOnlyWrittenPrefix(t *testing.T) {
	m := New(0)
	if err := m.Write32(1024, 7); err != nil {
		t.Fatal(err)
	}
	if len(m.data) != 1028 || cap(m.data) >= DefaultSize {
		t.Fatalf("backing len %d cap %d after one low write", len(m.data), cap(m.data))
	}
}

func TestLazySRAMUntouchedBytesReadZero(t *testing.T) {
	m := New(0)
	_ = m.Write8(100, 0xff)
	for _, addr := range []uint32{0, 96, 101, 4096, DefaultSize - 4} {
		if v, err := m.Read32(addr); err != nil || v != 0 {
			t.Fatalf("Read32(%d) = %#x, %v", addr, v, err)
		}
	}
	// A read straddling the end of the written prefix is zero-extended.
	if v, err := m.Read16(100); err != nil || v != 0x00ff {
		t.Fatalf("Read16 across prefix end = %#x, %v", v, err)
	}
	if b, err := m.ReadBytes(98, 8); err != nil || !bytes.Equal(b, []byte{0, 0, 0xff, 0, 0, 0, 0, 0}) {
		t.Fatalf("ReadBytes across prefix end = %v, %v", b, err)
	}
	if v, err := m.Read8(DefaultSize - 1); err != nil || v != 0 {
		t.Fatalf("Read8 of last byte = %d, %v", v, err)
	}
}

func TestLazySRAMLastWord(t *testing.T) {
	m := New(0)
	last := uint32(DefaultSize - 4)
	if err := m.Write32(last, 0xcafef00d); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Read32(last); err != nil || v != 0xcafef00d {
		t.Fatalf("Read32 at last word = %#x, %v", v, err)
	}
	if v, _ := m.Read32(last - 4); v != 0 {
		t.Fatalf("word below the last = %#x, want 0", v)
	}
}

func TestLazySRAMOnePastCapacity(t *testing.T) {
	m := New(0)
	want := &AccessError{Op: "write", Addr: DefaultSize - 3, Size: 4, Cap: DefaultSize}
	err := m.Write32(DefaultSize-3, 1)
	var ae *AccessError
	if !errors.As(err, &ae) || *ae != *want {
		t.Fatalf("got %v, want %v", err, want)
	}
	if got := err.Error(); got != "sharedmem: write of 4 bytes at 0x3e7fd exceeds 256000-byte SRAM" {
		t.Fatalf("message %q", got)
	}
	if _, err := m.Read8(DefaultSize); err == nil {
		t.Fatal("Read8 one past capacity succeeded")
	}
	if err := m.Fill(DefaultSize-8, 9, 1); err == nil {
		t.Fatal("Fill one past capacity succeeded")
	}
	if len(m.data) != 0 {
		t.Fatalf("failed accesses grew the backing to %d bytes", len(m.data))
	}
}

func TestLazySRAMAllocPastCapacity(t *testing.T) {
	m := New(0)
	if _, err := m.Alloc("big", DefaultSize-8); err != nil {
		t.Fatal(err)
	}
	_, err := m.Alloc("over", 16)
	want := `sharedmem: out of SRAM allocating 16 bytes for "over" (used 255992 of 256000)`
	if err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
}

func TestLazySRAMWatchpointOnGrownBytes(t *testing.T) {
	m := New(0)
	base := uint32(DefaultSize - 16)
	var hits []uint32
	m.OnWrite(base, 16, func(addr uint32, size int) { hits = append(hits, addr) })
	_ = m.Write8(0, 1) // far below the window
	if err := m.Write32(base+4, 9); err != nil {
		t.Fatal(err)
	}
	if err := m.Fill(base-2, 4, 3); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0] != base+4 || hits[1] != base-2 {
		t.Fatalf("watch hits %v", hits)
	}
	if v, _ := m.Read32(base + 4); v != 9 {
		t.Fatalf("grown word reads %d", v)
	}
}

// Random accesses against a fully allocated byte slice: every read and
// every error agrees.
func TestLazySRAMMatchesEagerModel(t *testing.T) {
	const size = 4096
	rng := rand.New(rand.NewSource(3))
	m := New(size)
	model := make([]byte, size)
	for i := 0; i < 20000; i++ {
		// Addresses cluster low, as a trial's do, and sometimes overrun.
		addr := uint32(rng.Intn(size/4 + 1<<uint(rng.Intn(13))))
		op, n := rng.Intn(6), 1+rng.Intn(8)
		switch op {
		case 0:
			n = 1
		case 1, 2:
			n = 4
		}
		inBounds := int(addr)+n <= size
		var err error
		switch op {
		case 0:
			v := byte(rng.Intn(256))
			if err = m.Write8(addr, v); inBounds {
				model[addr] = v
			}
		case 1:
			var v uint32
			v, err = m.Read32(addr)
			if inBounds && v != binary.LittleEndian.Uint32(model[addr:]) {
				t.Fatalf("op %d: Read32(%d) = %#x, model %#x", i, addr, v, binary.LittleEndian.Uint32(model[addr:]))
			}
		case 2:
			v := rng.Uint32()
			if err = m.Write32(addr, v); inBounds {
				binary.LittleEndian.PutUint32(model[addr:], v)
			}
		case 3:
			var b []byte
			b, err = m.ReadBytes(addr, n)
			if inBounds && !bytes.Equal(b, model[addr:int(addr)+n]) {
				t.Fatalf("op %d: ReadBytes(%d, %d) = %v, model %v", i, addr, n, b, model[addr:int(addr)+n])
			}
		case 4:
			b := make([]byte, n)
			rng.Read(b)
			if err = m.WriteBytes(addr, b); inBounds {
				copy(model[addr:], b)
			}
		case 5:
			v := byte(rng.Intn(256))
			if err = m.Fill(addr, n, v); inBounds {
				for j := 0; j < n; j++ {
					model[int(addr)+j] = v
				}
			}
		}
		if (err == nil) != inBounds {
			t.Fatalf("op %d at %d: err %v, in bounds %v", i, addr, err, inBounds)
		}
	}
	got, err := m.ReadBytes(0, size)
	if err != nil || !bytes.Equal(got, model) {
		t.Fatal("final contents differ from the eager model")
	}
}
