package ip6

import (
	"fmt"
	"net/netip"

	"hitlist6/internal/rng"
)

// Prefix is an IPv6 prefix: a masked base address plus a length in bits.
// The base address is always stored in canonical (masked) form.
type Prefix struct {
	addr Addr
	bits uint8
}

// PrefixFrom builds a prefix from an address and length, masking the
// address down to the prefix length. Lengths outside [0,128] panic.
func PrefixFrom(a Addr, bits int) Prefix {
	if bits < 0 || bits > 128 {
		panic(fmt.Sprintf("ip6: invalid prefix length %d", bits))
	}
	return Prefix{addr: mask(a, bits), bits: uint8(bits)}
}

// ParsePrefix parses "addr/len" notation.
func ParsePrefix(s string) (Prefix, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return Prefix{}, fmt.Errorf("ip6: parse prefix %q: %w", s, err)
	}
	if !p.Addr().Is6() || p.Addr().Is4In6() {
		return Prefix{}, fmt.Errorf("ip6: %q is not an IPv6 prefix", s)
	}
	return PrefixFrom(Addr(p.Addr().As16()), p.Bits()), nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func mask(a Addr, bits int) Addr {
	var m Addr
	full := bits / 8
	copy(m[:full], a[:full])
	if rem := bits % 8; rem != 0 {
		m[full] = a[full] & (0xff << (8 - uint(rem)))
	}
	return m
}

// Addr returns the masked base address.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the prefix length.
func (p Prefix) Bits() int { return int(p.bits) }

// IsZero reports whether p is the zero Prefix (::/0 with zero addr is a
// valid prefix; IsZero is for "unset" detection via the full struct).
func (p Prefix) IsZero() bool { return p.addr.IsZero() && p.bits == 0 }

// String formats as "addr/len".
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.addr.String(), p.bits)
}

// Contains reports whether a is inside the prefix.
func (p Prefix) Contains(a Addr) bool {
	return mask(a, int(p.bits)) == p.addr
}

// ContainsPrefix reports whether q is fully inside p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.bits >= p.bits && p.Contains(q.addr)
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.bits <= q.bits {
		return p.Contains(q.addr)
	}
	return q.Contains(p.addr)
}

// Parent returns the prefix shortened by n bits (clamped at /0).
func (p Prefix) Parent(n int) Prefix {
	nb := int(p.bits) - n
	if nb < 0 {
		nb = 0
	}
	return PrefixFrom(p.addr, nb)
}

// Child returns the i-th child prefix extended by n bits.
// i must fit in n bits.
func (p Prefix) Child(n int, i uint64) Prefix {
	nb := int(p.bits) + n
	if nb > 128 {
		panic("ip6: child prefix longer than /128")
	}
	if n < 64 && i >= 1<<uint(n) {
		panic("ip6: child index out of range")
	}
	a := p.addr
	for b := 0; b < n; b++ {
		bit := byte(i>>uint(n-1-b)) & 1
		a = a.SetBit(int(p.bits)+b, bit)
	}
	return Prefix{addr: a, bits: uint8(nb)}
}

// SubprefixOfNibble returns the prefix extended by 4 bits with the next
// nibble set to v; this is how the multi-level alias detection walks
// "2001:db8:[0-f]000::/36"-style subprefixes.
func (p Prefix) SubprefixOfNibble(v byte) Prefix {
	return p.Child(4, uint64(v&0x0f))
}

// First returns the lowest address in the prefix.
func (p Prefix) First() Addr { return p.addr }

// Last returns the highest address in the prefix.
func (p Prefix) Last() Addr {
	a := p.addr
	for i := int(p.bits); i < 128; i++ {
		a = a.SetBit(i, 1)
	}
	return a
}

// NumAddressesLog2 returns log2 of the prefix size (128 - bits).
func (p Prefix) NumAddressesLog2() int { return 128 - int(p.bits) }

// RandomAddr returns a uniformly random address inside the prefix.
// The paper's alias detection uses exactly this primitive: "the detection
// selects one random address within each of the 16 more specific prefixes".
func (p Prefix) RandomAddr(r *rng.Stream) Addr {
	a := p.addr
	hostBits := 128 - int(p.bits)
	// Fill host bits from the stream, most significant first. Each
	// 64-bit draw's top n bits land contiguously at the current offset;
	// they are deposited a byte at a time (bit-identical to a per-bit
	// loop, ~8× fewer operations — alias detection generates 16 of
	// these per candidate per round).
	for i := 0; i < hostBits; i += 64 {
		chunk := r.Uint64()
		n := hostBits - i
		if n > 64 {
			n = 64
		}
		pos := int(p.bits) + i
		for n > 0 {
			take := 8 - pos&7
			if take > n {
				take = n
			}
			bits := byte(chunk >> (64 - take)) // top `take` bits, MSB-first
			chunk <<= take
			shift := 8 - pos&7 - take
			mask := byte(1<<take-1) << shift
			a[pos>>3] = a[pos>>3]&^mask | bits<<shift
			pos += take
			n -= take
		}
	}
	return a
}

// NthAddr returns base + n (within the prefix, no overflow checking beyond
// the prefix boundary; callers use small n against large prefixes).
func (p Prefix) NthAddr(n uint64) Addr {
	a := p.addr
	lo := a.Lo() + n
	if lo < a.Lo() { // carry into the high half
		return AddrFromUint64s(a.Hi()+1, lo)
	}
	return AddrFromUint64s(a.Hi(), lo)
}

// Slash64 returns the /64 containing a; the most common grouping in the
// hitlist pipeline.
func Slash64(a Addr) Prefix { return PrefixFrom(a, 64) }

// ComparePrefix orders prefixes by base address then length.
func ComparePrefix(a, b Prefix) int {
	if c := a.addr.Compare(b.addr); c != 0 {
		return c
	}
	switch {
	case a.bits < b.bits:
		return -1
	case a.bits > b.bits:
		return 1
	}
	return 0
}
