// Package abi implements the subset of the Ethereum contract ABI that the
// analyzer and contract generator need: function prototypes, 4-byte
// selectors, and static-argument call-data encoding.
package abi

import (
	"fmt"
	"strings"

	"repro/internal/keccak"
	"repro/internal/u256"
)

// Function describes a contract function's external interface.
type Function struct {
	// Name is the function's identifier, e.g. "transfer".
	Name string
	// Params are the canonical parameter type names, e.g. ["address","uint256"].
	Params []string
}

// Prototype returns the canonical signature string, e.g.
// "transfer(address,uint256)".
func (f Function) Prototype() string {
	var buf [64]byte
	return string(f.AppendPrototype(buf[:0]))
}

// AppendPrototype appends the canonical signature to dst and returns the
// extended slice. It is the one prototype builder: a caller that only
// hashes the prototype can build it in a stack buffer.
func (f Function) AppendPrototype(dst []byte) []byte {
	dst = append(dst, f.Name...)
	dst = append(dst, '(')
	for i, p := range f.Params {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, p...)
	}
	return append(dst, ')')
}

// Selector returns the 4-byte function selector.
func (f Function) Selector() [4]byte {
	var buf [64]byte
	h := keccak.Sum256(f.AppendPrototype(buf[:0]))
	return [4]byte(h[:4])
}

// ParsePrototype parses "name(type1,type2)" into a Function.
func ParsePrototype(proto string) (Function, error) {
	open := strings.IndexByte(proto, '(')
	if open <= 0 || !strings.HasSuffix(proto, ")") {
		return Function{}, fmt.Errorf("abi: malformed prototype %q", proto)
	}
	name := proto[:open]
	inner := proto[open+1 : len(proto)-1]
	var params []string
	if inner != "" {
		params = strings.Split(inner, ",")
		for i, p := range params {
			params[i] = strings.TrimSpace(p)
			if params[i] == "" {
				return Function{}, fmt.Errorf("abi: empty parameter in %q", proto)
			}
		}
	}
	return Function{Name: name, Params: params}, nil
}

// SelectorOf is a convenience wrapper hashing a prototype string directly.
func SelectorOf(proto string) [4]byte { return keccak.Selector(proto) }

// EncodeCall builds call data: the 4-byte selector followed by each
// argument encoded as a 32-byte big-endian word. Only static types are
// supported, which covers everything the generated contracts accept.
func EncodeCall(selector [4]byte, args ...u256.Int) []byte {
	out := make([]byte, 4+32*len(args))
	copy(out, selector[:])
	for i, a := range args {
		w := a.Bytes32()
		copy(out[4+32*i:], w[:])
	}
	return out
}

// DecodeSelector splits call data into its selector and argument words.
// Short call data (under 4 bytes) yields ok == false.
func DecodeSelector(callData []byte) (sel [4]byte, ok bool) {
	if len(callData) < 4 {
		return sel, false
	}
	copy(sel[:], callData)
	return sel, true
}

// Word returns the i-th 32-byte argument word of call data (after the
// selector), zero-padded if out of range.
func Word(callData []byte, i int) u256.Int {
	off := 4 + 32*i
	if off >= len(callData) {
		return u256.Zero()
	}
	end := off + 32
	if end > len(callData) {
		end = len(callData)
	}
	buf := make([]byte, 32)
	copy(buf, callData[off:end])
	return u256.FromBytes(buf)
}
