package etypes

import (
	"encoding/hex"
	"testing"

	"repro/internal/u256"
)

func TestHexToAddress(t *testing.T) {
	a, err := HexToAddress("0xdAC17F958D2ee523a2206206994597C13D831ec7")
	if err != nil {
		t.Fatal(err)
	}
	if a.Hex() != "0xdac17f958d2ee523a2206206994597c13d831ec7" {
		t.Errorf("round trip: %s", a.Hex())
	}
	if _, err := HexToAddress("0x1234"); err == nil {
		t.Error("short address should fail")
	}
	if _, err := HexToAddress("zz" + a.Hex()[4:]); err == nil {
		t.Error("bad digits should fail")
	}
}

func TestAddressWordRoundTrip(t *testing.T) {
	a := MustAddress("0x00000000000000000000000000000000deadbeef")
	w := a.Word()
	if got := AddressFromWord(w); got != a {
		t.Errorf("word round trip: %s", got)
	}
	if w.Uint64() != 0xdeadbeef {
		t.Errorf("low bits: %s", w)
	}
}

func TestBytesToAddressTruncation(t *testing.T) {
	long := make([]byte, 32)
	long[31] = 0x7f
	long[0] = 0xff // must be discarded
	a := BytesToAddress(long)
	if a[19] != 0x7f || a[0] != 0 {
		t.Errorf("truncation wrong: %s", a)
	}
	short := []byte{0xab}
	b := BytesToAddress(short)
	if b[19] != 0xab || b[0] != 0 {
		t.Errorf("padding wrong: %s", b)
	}
}

func TestCreateAddressKnownVector(t *testing.T) {
	// Known mainnet derivation: sender 0x6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0
	// with nonce 0 creates 0xcd234a471b72ba2f1ccf0a70fcaba648a5eecd8d
	// (the CryptoKitties deployment, a classic fixture).
	sender := MustAddress("0x6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0")
	got := CreateAddress(sender, 0)
	want := MustAddress("0xcd234a471b72ba2f1ccf0a70fcaba648a5eecd8d")
	if got != want {
		t.Errorf("CreateAddress nonce 0 = %s, want %s", got, want)
	}
}

func TestCreateAddressNonceChanges(t *testing.T) {
	sender := MustAddress("0x1111111111111111111111111111111111111111")
	seen := map[Address]bool{}
	for n := uint64(0); n < 300; n++ {
		a := CreateAddress(sender, n)
		if seen[a] {
			t.Fatalf("duplicate address at nonce %d", n)
		}
		seen[a] = true
	}
}

func TestCreateAddress2KnownVector(t *testing.T) {
	// EIP-1014 example 0: address 0x0, salt 0x0, init_code 0x00
	// => 0x4D1A2e2bB4F88F0250f26Ffff098B0b30B26BF38.
	got := CreateAddress2(ZeroAddress, Hash{}, []byte{0x00})
	want := MustAddress("0x4D1A2e2bB4F88F0250f26Ffff098B0b30B26BF38")
	if got != want {
		t.Errorf("CreateAddress2 = %s, want %s", got, want)
	}
}

func TestHashWordRoundTrip(t *testing.T) {
	w := u256.MustHex("0x360894a13ba1a3210667c828492db98dca3e2076cc3735a920a3ca505d382bbc")
	h := HashFromWord(w)
	if !h.Word().Eq(w) {
		t.Error("hash/word round trip failed")
	}
}

// TestHexAllocsOnce pins Address.Hex and Hash.Hex to one allocation each:
// the returned string.
func TestHexAllocsOnce(t *testing.T) {
	a := MustAddress("0x00112233445566778899aabbccddeeff00112233")
	h := Keccak(a[:])
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = a.Hex() }); n != 1 {
		t.Errorf("Address.Hex allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = h.Hex() }); n != 1 {
		t.Errorf("Hash.Hex allocates %v times, want 1", n)
	}
	if want := "0x" + hex.EncodeToString(h[:]); sink != want {
		t.Errorf("Hash.Hex = %s, want %s", sink, want)
	}
	if got := a.Hex(); got != "0x00112233445566778899aabbccddeeff00112233" {
		t.Errorf("Address.Hex = %s", got)
	}
}
