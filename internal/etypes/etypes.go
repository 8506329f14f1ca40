// Package etypes holds the small Ethereum domain types shared across the
// repository: 20-byte account addresses and 32-byte hashes/words, plus the
// address-derivation rules for contract creation.
package etypes

import (
	"encoding/hex"
	"fmt"

	"repro/internal/keccak"
	"repro/internal/u256"
)

// Address is a 20-byte Ethereum account address.
type Address [20]byte

// Hash is a 32-byte value: a Keccak-256 digest or a raw storage word.
type Hash [32]byte

// ZeroAddress is the all-zero address.
var ZeroAddress Address

// HexToAddress parses a 0x-prefixed or bare 40-digit hex address.
func HexToAddress(s string) (Address, error) {
	if len(s) >= 2 && (s[:2] == "0x" || s[:2] == "0X") {
		s = s[2:]
	}
	var a Address
	if len(s) != 40 {
		return a, fmt.Errorf("etypes: address hex must be 40 digits, got %d", len(s))
	}
	if _, err := hex.Decode(a[:], []byte(s)); err != nil {
		return a, fmt.Errorf("etypes: bad address %q: %w", s, err)
	}
	return a, nil
}

// MustAddress is HexToAddress that panics on malformed input.
func MustAddress(s string) Address {
	a, err := HexToAddress(s)
	if err != nil {
		panic(err)
	}
	return a
}

// BytesToAddress truncates/left-pads b into an address, keeping the trailing
// 20 bytes (EVM address coercion).
func BytesToAddress(b []byte) Address {
	var a Address
	if len(b) > 20 {
		b = b[len(b)-20:]
	}
	copy(a[20-len(b):], b)
	return a
}

// Hex returns the 0x-prefixed lowercase hex form, in one allocation.
func (a Address) Hex() string {
	var buf [2 + 2*len(a)]byte
	return hexString(buf[:], a[:])
}

// hexString writes "0x" and the hex of b into buf, which holds exactly
// that, and returns it as a string.
func hexString(buf, b []byte) string {
	buf[0], buf[1] = '0', 'x'
	hex.Encode(buf[2:], b)
	return string(buf)
}

// String implements fmt.Stringer.
func (a Address) String() string { return a.Hex() }

// IsZero reports whether a is the zero address.
func (a Address) IsZero() bool { return a == Address{} }

// Word returns the address left-padded to a 32-byte word.
func (a Address) Word() u256.Int { return u256.FromBytes(a[:]) }

// AddressFromWord extracts the low 20 bytes of a word as an address.
func AddressFromWord(w u256.Int) Address {
	buf := w.Bytes32()
	return BytesToAddress(buf[12:])
}

// Hex returns the 0x-prefixed lowercase hex form, in one allocation.
func (h Hash) Hex() string {
	var buf [2 + 2*len(h)]byte
	return hexString(buf[:], h[:])
}

// String implements fmt.Stringer.
func (h Hash) String() string { return h.Hex() }

// Word returns the hash as a 256-bit word.
func (h Hash) Word() u256.Int { return u256.FromBytes32(h) }

// SelectorBytes returns the first four bytes of the hash — the function
// selector when the hash is a Keccak of a function prototype.
func (h Hash) SelectorBytes() [4]byte { return [4]byte{h[0], h[1], h[2], h[3]} }

// HashFromWord converts a word to a Hash.
func HashFromWord(w u256.Int) Hash { return Hash(w.Bytes32()) }

// Keccak returns the Keccak-256 hash of data as a Hash.
func Keccak(data []byte) Hash { return Hash(keccak.Sum256(data)) }

// CreateAddress derives the address of a contract created by sender with the
// given account nonce: keccak(rlp([sender, nonce]))[12:].
func CreateAddress(sender Address, nonce uint64) Address {
	enc := rlpList(rlpBytes(sender[:]), rlpUint(nonce))
	h := keccak.Sum256(enc)
	return BytesToAddress(h[12:])
}

// CreateAddress2 derives the CREATE2 address:
// keccak(0xff ++ sender ++ salt ++ keccak(initCode))[12:].
func CreateAddress2(sender Address, salt Hash, initCode []byte) Address {
	codeHash := keccak.Sum256(initCode)
	var buf [1 + 20 + 32 + 32]byte
	buf[0] = 0xff
	copy(buf[1:], sender[:])
	copy(buf[21:], salt[:])
	copy(buf[53:], codeHash[:])
	h := keccak.Sum256(buf[:])
	return BytesToAddress(h[12:])
}

// rlpBytes encodes a byte string per RLP. Only the short forms needed for
// address derivation are implemented.
func rlpBytes(b []byte) []byte {
	if len(b) == 1 && b[0] < 0x80 {
		return []byte{b[0]}
	}
	if len(b) <= 55 {
		return append([]byte{0x80 + byte(len(b))}, b...)
	}
	panic("etypes: rlpBytes only supports short strings")
}

// rlpUint encodes an unsigned integer per RLP (minimal big-endian bytes;
// zero encodes as the empty string).
func rlpUint(v uint64) []byte {
	if v == 0 {
		return []byte{0x80}
	}
	var tmp [8]byte
	n := 0
	for i := 7; i >= 0; i-- {
		tmp[i] = byte(v)
		v >>= 8
		n++
		if v == 0 {
			break
		}
	}
	return rlpBytes(tmp[8-n:])
}

// rlpList encodes a list of already-encoded items.
func rlpList(items ...[]byte) []byte {
	var payload []byte
	for _, it := range items {
		payload = append(payload, it...)
	}
	if len(payload) > 55 {
		panic("etypes: rlpList only supports short lists")
	}
	return append([]byte{0xc0 + byte(len(payload))}, payload...)
}
