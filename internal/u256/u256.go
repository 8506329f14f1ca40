// Package u256 implements fixed-size 256-bit unsigned integer arithmetic as
// used by the Ethereum Virtual Machine. Values are immutable-by-convention:
// all operations return new values and never mutate their receivers, which
// keeps EVM stack semantics (pop operands, push result) easy to reason about.
//
// Representation is four little-endian uint64 limbs: limb 0 holds bits 0..63.
// Hot-path operations (add, sub, mul, comparisons, bit ops, shifts) are
// implemented natively; division-family operations delegate to math/big for
// correctness, which the property tests cross-check against the native paths.
package u256

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Int is a 256-bit unsigned integer. The zero value is the number zero and is
// ready to use.
type Int struct {
	limbs [4]uint64 // little-endian: limbs[0] = bits 0..63
}

// Zero returns the zero value.
func Zero() Int { return Int{} }

// One returns the value 1.
func One() Int { return Int{limbs: [4]uint64{1, 0, 0, 0}} }

// Max returns 2^256 - 1.
func Max() Int {
	return Int{limbs: [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}}
}

// FromUint64 returns v as a 256-bit integer.
func FromUint64(v uint64) Int { return Int{limbs: [4]uint64{v, 0, 0, 0}} }

// FromBytes interprets b as a big-endian unsigned integer. Inputs longer than
// 32 bytes keep only the trailing 32 bytes, matching EVM truncation rules.
func FromBytes(b []byte) Int {
	if len(b) > 32 {
		b = b[len(b)-32:]
	}
	var buf [32]byte
	copy(buf[32-len(b):], b)
	return FromBytes32(buf)
}

// FromBytes32 interprets buf as a big-endian unsigned integer.
func FromBytes32(buf [32]byte) Int {
	var x Int
	x.limbs[3] = binary.BigEndian.Uint64(buf[0:8])
	x.limbs[2] = binary.BigEndian.Uint64(buf[8:16])
	x.limbs[1] = binary.BigEndian.Uint64(buf[16:24])
	x.limbs[0] = binary.BigEndian.Uint64(buf[24:32])
	return x
}

// FromHex parses a 0x-prefixed or bare hexadecimal string.
func FromHex(s string) (Int, error) {
	if len(s) >= 2 && (s[:2] == "0x" || s[:2] == "0X") {
		s = s[2:]
	}
	if len(s) == 0 || len(s) > 64 {
		return Int{}, fmt.Errorf("u256: invalid hex length %d", len(s))
	}
	var x Int
	for _, c := range []byte(s) {
		var nib uint64
		switch {
		case '0' <= c && c <= '9':
			nib = uint64(c - '0')
		case 'a' <= c && c <= 'f':
			nib = uint64(c-'a') + 10
		case 'A' <= c && c <= 'F':
			nib = uint64(c-'A') + 10
		default:
			return Int{}, fmt.Errorf("u256: invalid hex digit %q", c)
		}
		x = x.Shl(4)
		x.limbs[0] |= nib
	}
	return x, nil
}

// MustHex is FromHex that panics on malformed input. Intended for constants.
func MustHex(s string) Int {
	x, err := FromHex(s)
	if err != nil {
		panic(err)
	}
	return x
}

// Bytes32 returns the big-endian 32-byte representation.
func (x Int) Bytes32() [32]byte {
	var buf [32]byte
	binary.BigEndian.PutUint64(buf[0:8], x.limbs[3])
	binary.BigEndian.PutUint64(buf[8:16], x.limbs[2])
	binary.BigEndian.PutUint64(buf[16:24], x.limbs[1])
	binary.BigEndian.PutUint64(buf[24:32], x.limbs[0])
	return buf
}

// Bytes returns the minimal big-endian representation (no leading zeros,
// empty slice for zero).
func (x Int) Bytes() []byte {
	full := x.Bytes32()
	i := 0
	for i < 32 && full[i] == 0 {
		i++
	}
	out := make([]byte, 32-i)
	copy(out, full[i:])
	return out
}

// Uint64 returns the low 64 bits.
func (x Int) Uint64() uint64 { return x.limbs[0] }

// IsUint64 reports whether x fits in a uint64.
func (x Int) IsUint64() bool { return x.limbs[1]|x.limbs[2]|x.limbs[3] == 0 }

// IsZero reports whether x == 0.
func (x Int) IsZero() bool { return x.limbs[0]|x.limbs[1]|x.limbs[2]|x.limbs[3] == 0 }

// Eq reports whether x == y.
func (x Int) Eq(y Int) bool { return x.limbs == y.limbs }

// Cmp returns -1, 0, or +1 for x < y, x == y, x > y (unsigned).
func (x Int) Cmp(y Int) int {
	for i := 3; i >= 0; i-- {
		switch {
		case x.limbs[i] < y.limbs[i]:
			return -1
		case x.limbs[i] > y.limbs[i]:
			return 1
		}
	}
	return 0
}

// Lt reports x < y (unsigned).
func (x Int) Lt(y Int) bool { return x.Cmp(y) < 0 }

// Gt reports x > y (unsigned).
func (x Int) Gt(y Int) bool { return x.Cmp(y) > 0 }

// Sign returns -1 if x is negative under two's-complement interpretation,
// 0 if zero, and +1 otherwise.
func (x Int) Sign() int {
	if x.IsZero() {
		return 0
	}
	if x.limbs[3]>>63 == 1 {
		return -1
	}
	return 1
}

// Slt reports x < y under signed (two's-complement) interpretation.
func (x Int) Slt(y Int) bool {
	xs, ys := x.limbs[3]>>63, y.limbs[3]>>63
	if xs != ys {
		return xs == 1 // negative < non-negative
	}
	return x.Cmp(y) < 0
}

// Sgt reports x > y under signed interpretation.
func (x Int) Sgt(y Int) bool { return y.Slt(x) }

// Add returns x + y mod 2^256.
func (x Int) Add(y Int) Int {
	var z Int
	var c uint64
	z.limbs[0], c = bits.Add64(x.limbs[0], y.limbs[0], 0)
	z.limbs[1], c = bits.Add64(x.limbs[1], y.limbs[1], c)
	z.limbs[2], c = bits.Add64(x.limbs[2], y.limbs[2], c)
	z.limbs[3], _ = bits.Add64(x.limbs[3], y.limbs[3], c)
	return z
}

// Sub returns x - y mod 2^256.
func (x Int) Sub(y Int) Int {
	var z Int
	var b uint64
	z.limbs[0], b = bits.Sub64(x.limbs[0], y.limbs[0], 0)
	z.limbs[1], b = bits.Sub64(x.limbs[1], y.limbs[1], b)
	z.limbs[2], b = bits.Sub64(x.limbs[2], y.limbs[2], b)
	z.limbs[3], _ = bits.Sub64(x.limbs[3], y.limbs[3], b)
	return z
}

// Neg returns -x mod 2^256.
func (x Int) Neg() Int { return Zero().Sub(x) }

// Mul returns x * y mod 2^256 using schoolbook multiplication truncated to
// four limbs.
func (x Int) Mul(y Int) Int {
	var z [4]uint64
	for i := 0; i < 4; i++ {
		var carry uint64
		for j := 0; i+j < 4; j++ {
			hi, lo := bits.Mul64(x.limbs[i], y.limbs[j])
			var c1, c2 uint64
			z[i+j], c1 = bits.Add64(z[i+j], lo, 0)
			z[i+j], c2 = bits.Add64(z[i+j], carry, 0)
			carry = hi + c1 + c2
		}
	}
	return Int{limbs: z}
}

// And returns x & y.
func (x Int) And(y Int) Int {
	var z Int
	for i := range z.limbs {
		z.limbs[i] = x.limbs[i] & y.limbs[i]
	}
	return z
}

// Or returns x | y.
func (x Int) Or(y Int) Int {
	var z Int
	for i := range z.limbs {
		z.limbs[i] = x.limbs[i] | y.limbs[i]
	}
	return z
}

// Xor returns x ^ y.
func (x Int) Xor(y Int) Int {
	var z Int
	for i := range z.limbs {
		z.limbs[i] = x.limbs[i] ^ y.limbs[i]
	}
	return z
}

// Not returns ^x.
func (x Int) Not() Int {
	var z Int
	for i := range z.limbs {
		z.limbs[i] = ^x.limbs[i]
	}
	return z
}

// Shl returns x << n (zero for n >= 256).
func (x Int) Shl(n uint) Int {
	if n >= 256 {
		return Int{}
	}
	word := n / 64
	sh := n % 64
	var z Int
	for i := 3; i >= int(word); i-- {
		z.limbs[i] = x.limbs[i-int(word)] << sh
		if sh > 0 && i-int(word)-1 >= 0 {
			z.limbs[i] |= x.limbs[i-int(word)-1] >> (64 - sh)
		}
	}
	return z
}

// Shr returns x >> n logically (zero for n >= 256).
func (x Int) Shr(n uint) Int {
	if n >= 256 {
		return Int{}
	}
	word := n / 64
	sh := n % 64
	var z Int
	for i := 0; i <= 3-int(word); i++ {
		z.limbs[i] = x.limbs[i+int(word)] >> sh
		if sh > 0 && i+int(word)+1 <= 3 {
			z.limbs[i] |= x.limbs[i+int(word)+1] << (64 - sh)
		}
	}
	return z
}

// Sar returns x >> n arithmetically (sign-filling). For n >= 256 the result
// is all-ones when x is negative and zero otherwise, per EVM SAR semantics.
func (x Int) Sar(n uint) Int {
	neg := x.limbs[3]>>63 == 1
	if n >= 256 {
		if neg {
			return Max()
		}
		return Int{}
	}
	z := x.Shr(n)
	if neg && n > 0 {
		// Fill the vacated high bits with ones.
		fill := Max().Shl(256 - n)
		z = z.Or(fill)
	}
	return z
}

// Byte returns the i-th byte of x counted from the most significant end
// (EVM BYTE semantics); i >= 32 yields zero.
func (x Int) Byte(i uint64) Int {
	if i >= 32 {
		return Int{}
	}
	buf := x.Bytes32()
	return FromUint64(uint64(buf[i]))
}

// SignExtend extends the sign bit of the byte at index b (counting from the
// least significant byte) through the high bits, per EVM SIGNEXTEND.
func (x Int) SignExtend(b Int) Int {
	if !b.IsUint64() || b.Uint64() >= 31 {
		return x
	}
	bitIndex := uint(b.Uint64()*8 + 7)
	mask := One().Shl(bitIndex + 1).Sub(One()) // low bitIndex+1 bits
	if x.Bit(bitIndex) == 1 {
		return x.Or(mask.Not())
	}
	return x.And(mask)
}

// Bit returns bit i of x (0 or 1); i >= 256 yields 0.
func (x Int) Bit(i uint) uint64 {
	if i >= 256 {
		return 0
	}
	return (x.limbs[i/64] >> (i % 64)) & 1
}

// BitLen returns the length of x in bits (0 for zero).
func (x Int) BitLen() int {
	for i := 3; i >= 0; i-- {
		if x.limbs[i] != 0 {
			return i*64 + bits.Len64(x.limbs[i])
		}
	}
	return 0
}

// TrailingZeros returns the number of trailing zero bits of x (256 for
// zero).
func (x Int) TrailingZeros() int {
	for i, l := range x.limbs {
		if l != 0 {
			return i*64 + bits.TrailingZeros64(l)
		}
	}
	return 256
}

// Hex returns the canonical 0x-prefixed minimal hexadecimal representation.
func (x Int) Hex() string {
	if x.IsZero() {
		return "0x0"
	}
	const digits = "0123456789abcdef"
	buf := x.Bytes()
	out := make([]byte, 0, 2+2*len(buf))
	out = append(out, '0', 'x')
	first := true
	for _, b := range buf {
		hi, lo := b>>4, b&0xf
		if !(first && hi == 0) {
			out = append(out, digits[hi])
			first = false
		}
		out = append(out, digits[lo])
		first = false
	}
	return string(out)
}

// String implements fmt.Stringer using the hexadecimal form.
func (x Int) String() string { return x.Hex() }
