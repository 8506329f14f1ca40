package evm

import "repro/internal/u256"

// Memory is the transient byte-addressed memory of a call frame. It grows in
// 32-byte words and is zero-initialized, matching EVM semantics. Pooled
// frames keep the backing array between runs; expand re-zeroes any capacity
// it re-exposes, so reuse is invisible to the executing code.
type Memory struct {
	data []byte
}

// memoryRetainCap bounds how large a backing array a pooled frame keeps.
// Frames that ballooned past it drop the buffer on release rather than
// pinning multi-megabyte arrays in the pool.
const memoryRetainCap = 64 * 1024

// Len returns the current memory size in bytes (always a multiple of 32).
func (m *Memory) Len() int { return len(m.data) }

// expand grows memory so that [offset, offset+size) is addressable, rounding
// the new size up to a 32-byte word boundary.
func (m *Memory) expand(offset, size uint64) {
	if size == 0 {
		return
	}
	end := offset + size
	if end <= uint64(len(m.data)) {
		return
	}
	newLen := (end + 31) / 32 * 32
	if newLen <= uint64(cap(m.data)) {
		// Reuse retained capacity from a pooled frame's previous run; the
		// re-exposed region must read as zero.
		old := len(m.data)
		m.data = m.data[:newLen]
		clear(m.data[old:])
		return
	}
	grown := make([]byte, newLen)
	copy(grown, m.data)
	m.data = grown
}

// release resets memory for pooled reuse, retaining modest backing arrays.
func (m *Memory) release() {
	if cap(m.data) > memoryRetainCap {
		m.data = nil
		return
	}
	m.data = m.data[:0]
}

// SetByte writes a single byte at offset, expanding as needed.
func (m *Memory) SetByte(offset uint64, b byte) {
	m.expand(offset, 1)
	m.data[offset] = b
}

// SetWord writes a 32-byte big-endian word at offset.
func (m *Memory) SetWord(offset uint64, v u256.Int) {
	m.expand(offset, 32)
	buf := v.Bytes32()
	copy(m.data[offset:offset+32], buf[:])
}

// GetWord reads a 32-byte big-endian word at offset, expanding as needed
// (MLOAD expands memory even when reading).
func (m *Memory) GetWord(offset uint64) u256.Int {
	m.expand(offset, 32)
	return u256.FromBytes(m.data[offset : offset+32])
}

// Set copies data into memory at offset, expanding as needed.
func (m *Memory) Set(offset uint64, data []byte) {
	if len(data) == 0 {
		return
	}
	m.expand(offset, uint64(len(data)))
	copy(m.data[offset:], data)
}

// Get returns a copy of size bytes at offset, expanding as needed.
func (m *Memory) Get(offset, size uint64) []byte {
	if size == 0 {
		return nil
	}
	m.expand(offset, size)
	out := make([]byte, size)
	copy(out, m.data[offset:offset+size])
	return out
}

// View returns the memory region without copying; callers must not retain it
// across further writes. Used on hot paths (hashing, call argument slicing).
func (m *Memory) View(offset, size uint64) []byte {
	if size == 0 {
		return nil
	}
	m.expand(offset, size)
	return m.data[offset : offset+size]
}

// setPadded writes size bytes at offset, expanding as needed: src's
// leading bytes, then zeros where src runs out. It is the *COPY opcodes'
// write, straight into memory with no zero-padded temporary.
func (m *Memory) setPadded(offset, size uint64, src []byte) {
	if size == 0 {
		return
	}
	m.expand(offset, size)
	region := m.data[offset : offset+size]
	clear(region[copy(region, src):])
}
