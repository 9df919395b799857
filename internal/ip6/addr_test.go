package ip6

import (
	"bytes"
	"testing"
	"testing/quick"

	"hitlist6/internal/rng"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		ok   bool
		back string
	}{
		{"2001:db8::1", true, "2001:db8::1"},
		{"2001:0db8:0000:0000:0000:0000:0000:0001", true, "2001:db8::1"},
		{"::", true, "::"},
		{"ff02::1", true, "ff02::1"},
		{"192.0.2.1", false, ""},
		{"::ffff:192.0.2.1", false, ""},
		{"fe80::1%eth0", false, ""},
		{"not-an-address", false, ""},
		{"", false, ""},
	}
	for _, c := range cases {
		a, err := ParseAddr(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseAddr(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && a.String() != c.back {
			t.Errorf("ParseAddr(%q).String() = %q, want %q", c.in, a.String(), c.back)
		}
	}
}

func TestAddrHalves(t *testing.T) {
	a := MustParseAddr("2001:db8:1:2:3:4:5:6")
	if a.Hi() != 0x20010db800010002 {
		t.Errorf("Hi = %x", a.Hi())
	}
	if a.Lo() != 0x0003000400050006 {
		t.Errorf("Lo = %x", a.Lo())
	}
	if got := AddrFromUint64s(a.Hi(), a.Lo()); got != a {
		t.Errorf("AddrFromUint64s roundtrip: %v", got)
	}
}

func TestNibbleRoundtrip(t *testing.T) {
	f := func(raw [16]byte) bool {
		a := AddrFrom16(raw)
		return AddrFromNibbles(a.Nibbles()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNibbleAccessors(t *testing.T) {
	a := MustParseAddr("2001:db8::f")
	if a.Nibble(0) != 0x2 || a.Nibble(1) != 0x0 || a.Nibble(3) != 0x1 {
		t.Errorf("nibbles: %v %v %v", a.Nibble(0), a.Nibble(1), a.Nibble(3))
	}
	if a.Nibble(31) != 0xf {
		t.Errorf("last nibble = %v", a.Nibble(31))
	}
	b := a.SetNibble(0, 0x3)
	if b.Nibble(0) != 3 || b.Nibble(1) != 0 {
		t.Errorf("SetNibble: %v", b)
	}
	if a.Nibble(0) != 2 {
		t.Error("SetNibble mutated receiver")
	}
}

func TestFullHexRoundtrip(t *testing.T) {
	f := func(raw [16]byte) bool {
		a := AddrFrom16(raw)
		got, err := ParseFullHex(a.FullHex())
		return err == nil && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := ParseFullHex("zz"); err == nil {
		t.Error("ParseFullHex accepted short input")
	}
	if _, err := ParseFullHex("zz001db8000000000000000000000001"); err == nil {
		t.Error("ParseFullHex accepted bad digit")
	}
	// Upper case accepted.
	if a, err := ParseFullHex("20010DB8000000000000000000000001"); err != nil || a != MustParseAddr("2001:db8::1") {
		t.Errorf("upper-case full hex: %v %v", a, err)
	}
}

func TestBitOps(t *testing.T) {
	a := MustParseAddr("8000::")
	if a.Bit(0) != 1 || a.Bit(1) != 0 {
		t.Errorf("Bit: %v %v", a.Bit(0), a.Bit(1))
	}
	b := Addr{}.SetBit(127, 1)
	if b != MustParseAddr("::1") {
		t.Errorf("SetBit(127): %v", b)
	}
	if b.SetBit(127, 0) != (Addr{}) {
		t.Error("clearing bit failed")
	}
}

func TestNextPrev(t *testing.T) {
	a := MustParseAddr("2001:db8::ffff")
	if a.Next() != MustParseAddr("2001:db8::1:0") {
		t.Errorf("Next: %v", a.Next())
	}
	if a.Next().Prev() != a {
		t.Error("Next.Prev roundtrip failed")
	}
	// Carry across the /64 boundary.
	c := MustParseAddr("2001:db8:0:0:ffff:ffff:ffff:ffff")
	if c.Next() != MustParseAddr("2001:db8:0:1::") {
		t.Errorf("carry: %v", c.Next())
	}
	f := func(raw [16]byte) bool {
		a := AddrFrom16(raw)
		return a.Next().Prev() == a && a.Prev().Next() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompare(t *testing.T) {
	a := MustParseAddr("2001:db8::1")
	b := MustParseAddr("2001:db8::2")
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("Compare ordering wrong")
	}
	if !a.Less(b) || b.Less(a) {
		t.Error("Less wrong")
	}
	// The word-wise compare must be the byte-wise order: pairs share a
	// random-length common prefix, so both words decide some of them.
	r := rng.NewStream(5, "compare")
	for i := 0; i < 100_000; i++ {
		x := AddrFromUint64s(r.Uint64(), r.Uint64())
		y := AddrFromUint64s(r.Uint64(), r.Uint64())
		copy(y[:r.Intn(17)], x[:])
		if got, want := x.Compare(y), bytes.Compare(x[:], y[:]); got != want {
			t.Fatalf("%v vs %v: Compare %d, byte order %d", x, y, got, want)
		}
	}
}

func TestCommonPrefixLen(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"2001:db8::", "2001:db8::", 128},
		{"2001:db8::", "2001:db8::1", 127},
		{"2001:db8::", "2001:db9::", 31},
		{"::", "8000::", 0},
		{"2001::", "2002::", 14},
	}
	for _, c := range cases {
		got := MustParseAddr(c.a).CommonPrefixLen(MustParseAddr(c.b))
		if got != c.want {
			t.Errorf("CommonPrefixLen(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLoDistance(t *testing.T) {
	a := MustParseAddr("2001:db8::10")
	b := MustParseAddr("2001:db8::50")
	d, ok := a.LoDistance(b)
	if !ok || d != 0x40 {
		t.Errorf("LoDistance = %d, %v", d, ok)
	}
	if d2, _ := b.LoDistance(a); d2 != d {
		t.Error("LoDistance not symmetric")
	}
	c := MustParseAddr("2001:db9::10")
	if _, ok := a.LoDistance(c); ok {
		t.Error("LoDistance across /64s should fail")
	}
}

func TestXor(t *testing.T) {
	f := func(x, y [16]byte) bool {
		a, b := AddrFrom16(x), AddrFrom16(y)
		return a.Xor(b).Xor(b) == a && a.Xor(a) == (Addr{})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEUI64(t *testing.T) {
	p := MustParsePrefix("2001:db8:1:2::/64")
	mac := MAC{0x00, 0x1e, 0x73, 0xaa, 0xbb, 0xcc} // ZTE OUI
	a := AddrFromMAC(p, mac)
	if !a.IsEUI64() {
		t.Fatal("AddrFromMAC not detected as EUI-64")
	}
	got, ok := a.EUI64MAC()
	if !ok || got != mac {
		t.Fatalf("EUI64MAC = %v, %v", got, ok)
	}
	if got.OUI() != [3]byte{0x00, 0x1e, 0x73} {
		t.Errorf("OUI = %v", got.OUI())
	}
	iid, ok := a.EUI64IID()
	if !ok || iid != a.Lo() {
		t.Errorf("EUI64IID = %x", iid)
	}
	// Same MAC under a rotated prefix keeps the IID.
	p2 := MustParsePrefix("2001:db8:ffff:1::/64")
	a2 := AddrFromMAC(p2, mac)
	iid2, _ := a2.EUI64IID()
	if iid2 != iid {
		t.Error("IID changed across prefix rotation")
	}
	if a2 == a {
		t.Error("rotated prefix produced identical address")
	}
	// Non-EUI-64 address.
	plain := MustParseAddr("2001:db8::1")
	if plain.IsEUI64() {
		t.Error("::1 detected as EUI-64")
	}
	if _, ok := plain.EUI64MAC(); ok {
		t.Error("EUI64MAC on non-EUI64 succeeded")
	}
	if plain.String() != "2001:db8::1" {
		t.Error("String broken")
	}
	if mac.String() != "00:1e:73:aa:bb:cc" {
		t.Errorf("MAC.String = %s", mac.String())
	}
}

func TestLowByteAddr(t *testing.T) {
	if !MustParseAddr("2001:db8::1").LowByteAddr() {
		t.Error("::1 should be low-byte")
	}
	if !MustParseAddr("2001:db8::1234").LowByteAddr() {
		t.Error("::1234 should be low-byte")
	}
	if MustParseAddr("2001:db8::1:0:0:1").LowByteAddr() {
		t.Error("spread IID should not be low-byte")
	}
	if MustParseAddr("2001:db8::").LowByteAddr() {
		t.Error("zero IID should not be low-byte")
	}
}

func TestTeredo(t *testing.T) {
	server := IPv4{65, 54, 227, 120}
	client := IPv4{192, 0, 2, 45}
	a := TeredoAddr(server, client)
	if !a.IsTeredo() {
		t.Fatal("TeredoAddr not detected")
	}
	s, ok := a.TeredoServer()
	if !ok || s != server {
		t.Errorf("TeredoServer = %v", s)
	}
	c, ok := a.TeredoClient()
	if !ok || c != client {
		t.Errorf("TeredoClient = %v", c)
	}
	if MustParseAddr("2001:db8::1").IsTeredo() {
		t.Error("2001:db8 is not Teredo (2001::/32)")
	}
	if !MustParseAddr("2001::5").IsTeredo() {
		t.Error("2001::5 should be Teredo")
	}
	if _, ok := MustParseAddr("2002::1").TeredoClient(); ok {
		t.Error("non-Teredo TeredoClient succeeded")
	}
}

func TestIPv4String(t *testing.T) {
	cases := map[IPv4]string{
		{0, 0, 0, 0}:         "0.0.0.0",
		{192, 0, 2, 1}:       "192.0.2.1",
		{255, 255, 255, 255}: "255.255.255.255",
		{10, 0, 99, 7}:       "10.0.99.7",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("IPv4.String() = %q, want %q", v.String(), want)
		}
	}
	if IPv4FromUint32(0xc0000201) != (IPv4{192, 0, 2, 1}) {
		t.Error("IPv4FromUint32 wrong")
	}
	if (IPv4{192, 0, 2, 1}).Uint32() != 0xc0000201 {
		t.Error("Uint32 wrong")
	}
}

func TestIsGlobalUnicast(t *testing.T) {
	yes := []string{"2001:db9::1", "2600::1", "2a00:1450::5"}
	no := []string{"::", "::1", "fe80::1", "fc00::1", "fd12::1", "ff02::1", "2001:db8::1"}
	for _, s := range yes {
		if !MustParseAddr(s).IsGlobalUnicast() {
			t.Errorf("%s should be global unicast", s)
		}
	}
	for _, s := range no {
		if MustParseAddr(s).IsGlobalUnicast() {
			t.Errorf("%s should not be global unicast", s)
		}
	}
}

func TestRandomAddrInPrefix(t *testing.T) {
	r := rng.NewStream(1, "random-addr")
	for _, ps := range []string{"2001:db8::/32", "2001:db8:1::/48", "2001:db8::/64", "2001:db8::/96", "2001:db8::1/128"} {
		p := MustParsePrefix(ps)
		for i := 0; i < 100; i++ {
			a := p.RandomAddr(r)
			if !p.Contains(a) {
				t.Fatalf("RandomAddr(%s) = %v outside prefix", ps, a)
			}
		}
	}
	// /128 must return exactly the address.
	p := MustParsePrefix("2001:db8::1/128")
	if p.RandomAddr(r) != MustParseAddr("2001:db8::1") {
		t.Error("/128 RandomAddr wrong")
	}
	// Distribution across subprefixes should touch many nibble values.
	p32 := MustParsePrefix("2001:db8::/32")
	seen := map[byte]bool{}
	for i := 0; i < 200; i++ {
		seen[p32.RandomAddr(r).Nibble(8)] = true
	}
	if len(seen) < 12 {
		t.Errorf("RandomAddr poorly distributed: %d/16 nibble values", len(seen))
	}
}
