// Package ip6 implements the IPv6 address machinery the hitlist service is
// built on: 128-bit addresses and prefixes with nibble-level accessors,
// EUI-64 and Teredo analysis, address sets, and a longest-prefix-match trie.
//
// The representation is a plain [16]byte value type so addresses are
// comparable, hashable and allocation-free. Conversions to and from
// net/netip are provided at the edges for parsing and formatting.
package ip6

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// Addr is an IPv6 address in network byte order.
type Addr [16]byte

// ParseAddr parses an IPv6 address in any textual form accepted by
// net/netip. IPv4 and zoned addresses are rejected.
func ParseAddr(s string) (Addr, error) {
	a, err := netip.ParseAddr(s)
	if err != nil {
		return Addr{}, fmt.Errorf("ip6: parse %q: %w", s, err)
	}
	if !a.Is6() || a.Is4In6() {
		return Addr{}, fmt.Errorf("ip6: %q is not an IPv6 address", s)
	}
	if a.Zone() != "" {
		return Addr{}, fmt.Errorf("ip6: %q has a zone", s)
	}
	return Addr(a.As16()), nil
}

// MustParseAddr is ParseAddr that panics on error; for tests and tables.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// AddrFrom16 converts a raw 16-byte value.
func AddrFrom16(b [16]byte) Addr { return Addr(b) }

// AddrFromUint64s builds an address from its high and low 64-bit halves.
func AddrFromUint64s(hi, lo uint64) Addr {
	var a Addr
	binary.BigEndian.PutUint64(a[:8], hi)
	binary.BigEndian.PutUint64(a[8:], lo)
	return a
}

// Netip converts to netip.Addr.
func (a Addr) Netip() netip.Addr { return netip.AddrFrom16(a) }

// String formats the address in canonical RFC 5952 form.
func (a Addr) String() string { return a.Netip().String() }

// Hi returns the high (network) 64 bits.
func (a Addr) Hi() uint64 { return binary.BigEndian.Uint64(a[:8]) }

// Lo returns the low (interface identifier) 64 bits.
func (a Addr) Lo() uint64 { return binary.BigEndian.Uint64(a[8:]) }

// IsZero reports whether the address is ::.
func (a Addr) IsZero() bool { return a == Addr{} }

// Compare orders addresses numerically: -1, 0 or +1. The address is two
// big-endian words, so comparing Hi then Lo is the byte-wise order in two
// steps instead of sixteen — every sort, merge and binary search over
// addresses runs through here.
func (a Addr) Compare(b Addr) int {
	x, y := a.Hi(), b.Hi()
	if x == y {
		x, y = a.Lo(), b.Lo()
	}
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// Less reports a < b numerically.
func (a Addr) Less(b Addr) bool { return a.Compare(b) < 0 }

// Nibble returns the i-th 4-bit group, i in [0,32), counted from the most
// significant nibble. Nibble(0) is the top nibble of the first byte.
func (a Addr) Nibble(i int) byte {
	b := a[i>>1]
	if i&1 == 0 {
		return b >> 4
	}
	return b & 0x0f
}

// SetNibble returns a copy of a with the i-th nibble set to v (low 4 bits).
func (a Addr) SetNibble(i int, v byte) Addr {
	v &= 0x0f
	if i&1 == 0 {
		a[i>>1] = a[i>>1]&0x0f | v<<4
	} else {
		a[i>>1] = a[i>>1]&0xf0 | v
	}
	return a
}

// Nibbles expands the address into its 32 nibbles.
func (a Addr) Nibbles() [32]byte {
	var n [32]byte
	for i := 0; i < 16; i++ {
		n[2*i] = a[i] >> 4
		n[2*i+1] = a[i] & 0x0f
	}
	return n
}

// AddrFromNibbles assembles an address from 32 nibbles (low 4 bits each).
func AddrFromNibbles(n [32]byte) Addr {
	var a Addr
	for i := 0; i < 16; i++ {
		a[i] = n[2*i]<<4 | n[2*i+1]&0x0f
	}
	return a
}

// FullHex returns the fully expanded 32-character hex representation
// without separators, the "address string" form used by target generation
// algorithms (e.g. 6Tree, 6Graph operate on such strings).
func (a Addr) FullHex() string {
	const hexdigits = "0123456789abcdef"
	var sb strings.Builder
	sb.Grow(32)
	for i := 0; i < 16; i++ {
		sb.WriteByte(hexdigits[a[i]>>4])
		sb.WriteByte(hexdigits[a[i]&0x0f])
	}
	return sb.String()
}

// ParseFullHex parses the 32-character hex form produced by FullHex.
func ParseFullHex(s string) (Addr, error) {
	if len(s) != 32 {
		return Addr{}, fmt.Errorf("ip6: full-hex address must be 32 chars, got %d", len(s))
	}
	var a Addr
	for i := 0; i < 32; i++ {
		var v byte
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = c - '0'
		case c >= 'a' && c <= 'f':
			v = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			v = c - 'A' + 10
		default:
			return Addr{}, fmt.Errorf("ip6: bad hex digit %q at %d", c, i)
		}
		if i&1 == 0 {
			a[i>>1] = v << 4
		} else {
			a[i>>1] |= v
		}
	}
	return a, nil
}

// Bit returns bit i (0 = most significant) as 0 or 1.
func (a Addr) Bit(i int) byte {
	return (a[i>>3] >> (7 - uint(i&7))) & 1
}

// SetBit returns a copy of a with bit i set to v&1.
func (a Addr) SetBit(i int, v byte) Addr {
	mask := byte(1) << (7 - uint(i&7))
	if v&1 == 1 {
		a[i>>3] |= mask
	} else {
		a[i>>3] &^= mask
	}
	return a
}

// Next returns the address numerically after a, wrapping at the maximum.
func (a Addr) Next() Addr {
	for i := 15; i >= 0; i-- {
		a[i]++
		if a[i] != 0 {
			break
		}
	}
	return a
}

// Prev returns the address numerically before a, wrapping at zero.
func (a Addr) Prev() Addr {
	for i := 15; i >= 0; i-- {
		a[i]--
		if a[i] != 0xff {
			break
		}
	}
	return a
}

// Xor returns the bitwise XOR of two addresses.
func (a Addr) Xor(b Addr) Addr {
	var r Addr
	for i := range a {
		r[i] = a[i] ^ b[i]
	}
	return r
}

// CommonPrefixLen returns the length in bits of the longest common prefix
// of a and b, in [0, 128].
func (a Addr) CommonPrefixLen(b Addr) int {
	n := 0
	for i := 0; i < 16; i++ {
		x := a[i] ^ b[i]
		if x == 0 {
			n += 8
			continue
		}
		for x&0x80 == 0 {
			n++
			x <<= 1
		}
		return n
	}
	return n
}

// LoDistance returns |a.Lo() - b.Lo()| when both share the same /64,
// and ok=false otherwise. Distance clustering (Section 6 of the paper)
// operates on this metric.
func (a Addr) LoDistance(b Addr) (d uint64, ok bool) {
	if a.Hi() != b.Hi() {
		return 0, false
	}
	al, bl := a.Lo(), b.Lo()
	if al > bl {
		return al - bl, true
	}
	return bl - al, true
}
