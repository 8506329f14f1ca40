package u256

import (
	"math/big"
	"testing"
)

// minInt256 is -2^255, the one signed value whose negation overflows.
func minInt256() Int { return One().Shl(255) }

func TestSignedDivModEdges(t *testing.T) {
	min := minInt256()
	negOne := Max() // -1 in two's complement

	// MIN_INT256 / -1 overflows and wraps back to MIN_INT256 (EVM SDIV).
	if got := min.SDiv(negOne); !got.Eq(min) {
		t.Errorf("MIN/-1 = %v, want MIN (overflow wrap)", got)
	}
	// MIN % -1 = 0.
	if got := min.SMod(negOne); !got.IsZero() {
		t.Errorf("MIN %% -1 = %v, want 0", got)
	}
	// Division and modulo by zero yield zero in all four flavours.
	seven := FromUint64(7)
	for name, got := range map[string]Int{
		"Div":  seven.Div(Zero()),
		"Mod":  seven.Mod(Zero()),
		"SDiv": seven.Neg().SDiv(Zero()),
		"SMod": seven.Neg().SMod(Zero()),
	} {
		if !got.IsZero() {
			t.Errorf("%s by zero = %v, want 0", name, got)
		}
	}
	// SMod takes the dividend's sign: -7 % 3 = -1, 7 % -3 = 1.
	if got := seven.Neg().SMod(FromUint64(3)); !got.Eq(One().Neg()) {
		t.Errorf("-7 smod 3 = %v, want -1", got)
	}
	if got := seven.SMod(FromUint64(3).Neg()); !got.Eq(One()) {
		t.Errorf("7 smod -3 = %v, want 1", got)
	}
	// SDiv truncates toward zero: -7 / 2 = -3.
	if got := seven.Neg().SDiv(FromUint64(2)); !got.Eq(FromUint64(3).Neg()) {
		t.Errorf("-7 sdiv 2 = %v, want -3", got)
	}
}

func TestAddModMulModOverflow(t *testing.T) {
	max := Max()

	// (MAX + MAX) mod MAX = 0: the sum wraps 2^256 and must still reduce.
	if got := max.AddMod(max, max); !got.IsZero() {
		t.Errorf("(MAX+MAX) mod MAX = %v, want 0", got)
	}
	// (MAX + 1) mod MAX = 1.
	if got := max.AddMod(One(), max); !got.Eq(One()) {
		t.Errorf("(MAX+1) mod MAX = %v, want 1", got)
	}
	// MAX*MAX mod MAX = 0; MAX*MAX mod (MAX-1): MAX ≡ 1, so product ≡ 1.
	if got := max.MulMod(max, max); !got.IsZero() {
		t.Errorf("MAX*MAX mod MAX = %v, want 0", got)
	}
	maxLess1 := max.Sub(One())
	if got := max.MulMod(max, maxLess1); !got.Eq(One()) {
		t.Errorf("MAX*MAX mod (MAX-1) = %v, want 1", got)
	}
	// Modulus zero yields zero even when the sum/product would not.
	if got := max.AddMod(max, Zero()); !got.IsZero() {
		t.Errorf("addmod m=0 = %v, want 0", got)
	}
	if got := max.MulMod(max, Zero()); !got.IsZero() {
		t.Errorf("mulmod m=0 = %v, want 0", got)
	}
	// Modulus one always yields zero.
	if got := max.AddMod(max, One()); !got.IsZero() {
		t.Errorf("addmod m=1 = %v, want 0", got)
	}
}

func TestShiftsBeyond256(t *testing.T) {
	v := MustHex("0x8000000000000000000000000000000000000000000000000000000000000001")
	for _, n := range []uint{256, 257, 300, 1 << 20} {
		if got := v.Shl(n); !got.IsZero() {
			t.Errorf("Shl(%d) = %v, want 0", n, got)
		}
		if got := v.Shr(n); !got.IsZero() {
			t.Errorf("Shr(%d) = %v, want 0", n, got)
		}
		// Sar saturates to the sign fill: all ones for negative values,
		// zero for non-negative.
		if got := v.Sar(n); !got.Eq(Max()) {
			t.Errorf("negative Sar(%d) = %v, want MAX (all sign bits)", n, got)
		}
		if got := v.Shr(1).Sar(n); !got.IsZero() {
			t.Errorf("non-negative Sar(%d) = %v, want 0", n, got)
		}
	}
	// Boundary just below: shift by 255 keeps exactly one bit.
	if got := One().Shl(255).Shr(255); !got.Eq(One()) {
		t.Errorf("Shl(255).Shr(255) = %v, want 1", got)
	}
}

func TestByteAndSignExtendOutOfRange(t *testing.T) {
	v := MustHex("0x0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20")
	// Byte index >= 32 yields zero (EVM BYTE).
	for _, i := range []uint64{32, 33, 1000} {
		if got := v.Byte(i); !got.IsZero() {
			t.Errorf("Byte(%d) = %v, want 0", i, got)
		}
	}
	// SignExtend with byte position >= 31 leaves the value unchanged.
	for _, b := range []uint64{31, 32, 1000} {
		if got := v.SignExtend(FromUint64(b)); !got.Eq(v) {
			t.Errorf("SignExtend(%d) = %v, want unchanged", b, got)
		}
	}
}

// --- differential fuzzing against math/big ---

var twoTo256 = new(big.Int).Lsh(big.NewInt(1), 256)

// wrap reduces a big.Int into [0, 2^256).
func wrap(v *big.Int) *big.Int { return v.Mod(v, twoTo256) }

// signedBig interprets v (in [0,2^256)) as two's complement.
func signedBig(v *big.Int) *big.Int {
	if v.Bit(255) == 1 {
		return new(big.Int).Sub(v, twoTo256)
	}
	return new(big.Int).Set(v)
}

// fromSignedBig maps a signed big.Int back into the unsigned word domain.
func fromSignedBig(v *big.Int) *big.Int {
	if v.Sign() < 0 {
		return wrap(new(big.Int).Add(v, twoTo256))
	}
	return v
}

// FuzzU256VsBigInt cross-checks every arithmetic, signed, modular, and
// shift operation, and TrailingZeros, against a math/big reference model of
// EVM semantics.
func FuzzU256VsBigInt(f *testing.F) {
	f.Add([]byte{1}, []byte{2}, []byte{3})
	f.Add(
		Max().Bytes(),
		minInt256().Bytes(),
		[]byte{},
	)
	f.Add([]byte{0xff, 0xff}, []byte{0}, []byte{1})
	// TrailingZeros: zero, and a lone top bit above three empty limbs.
	f.Add([]byte{}, []byte{1}, []byte{})
	f.Add(append([]byte{0x80}, make([]byte, 31)...), []byte{}, []byte{2})
	f.Fuzz(func(t *testing.T, xb, yb, mb []byte) {
		if len(xb) > 32 || len(yb) > 32 || len(mb) > 32 {
			t.Skip()
		}
		x, y, m := FromBytes(xb), FromBytes(yb), FromBytes(mb)
		bx, by, bm := x.ToBig(), y.ToBig(), m.ToBig()

		check := func(op string, got Int, want *big.Int) {
			t.Helper()
			if got.ToBig().Cmp(want) != 0 {
				t.Errorf("%s(%v, %v) = %v, big.Int says %x", op, x, y, got, want)
			}
		}

		check("Add", x.Add(y), wrap(new(big.Int).Add(bx, by)))
		check("Sub", x.Sub(y), wrap(new(big.Int).Sub(bx, by)))
		check("Mul", x.Mul(y), wrap(new(big.Int).Mul(bx, by)))

		if y.IsZero() {
			check("Div", x.Div(y), big.NewInt(0))
			check("Mod", x.Mod(y), big.NewInt(0))
			check("SDiv", x.SDiv(y), big.NewInt(0))
			check("SMod", x.SMod(y), big.NewInt(0))
		} else {
			check("Div", x.Div(y), new(big.Int).Div(bx, by))
			check("Mod", x.Mod(y), new(big.Int).Mod(bx, by))
			sx, sy := signedBig(bx), signedBig(by)
			check("SDiv", x.SDiv(y), wrap(fromSignedBig(new(big.Int).Quo(sx, sy))))
			check("SMod", x.SMod(y), wrap(fromSignedBig(new(big.Int).Rem(sx, sy))))
		}

		if m.IsZero() {
			check("AddMod", x.AddMod(y, m), big.NewInt(0))
			check("MulMod", x.MulMod(y, m), big.NewInt(0))
		} else {
			sum := new(big.Int).Add(bx, by)
			check("AddMod", x.AddMod(y, m), sum.Mod(sum, bm))
			prod := new(big.Int).Mul(bx, by)
			check("MulMod", x.MulMod(y, m), prod.Mod(prod, bm))
		}

		check("Exp", x.Exp(y), new(big.Int).Exp(bx, by, twoTo256))

		// Shifts: the amount is the full word; >= 256 must saturate.
		n := uint(y.Uint64())
		if !y.IsUint64() || n > 1<<20 {
			n = 1 << 20
		}
		tz := 256
		if bx.Sign() != 0 {
			tz = int(bx.TrailingZeroBits())
		}
		if got := x.TrailingZeros(); got != tz {
			t.Errorf("TrailingZeros(%v) = %d, big.Int says %d", x, got, tz)
		}

		check("Shl", x.Shl(n), wrap(new(big.Int).Lsh(bx, n)))
		check("Shr", x.Shr(n), new(big.Int).Rsh(bx, n))
		sar := new(big.Int).Rsh(signedBig(bx), n)
		check("Sar", x.Sar(n), wrap(fromSignedBig(sar)))
	})
}
