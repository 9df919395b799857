package dnswire

import (
	"bytes"
	"testing"
)

func TestDecodeQueryInto(t *testing.T) {
	wire, err := NewQuery(0xbeef, "WWW.Example.COM.", TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var q ServerQuery
	if err := DecodeQueryInto(wire, &q); err != nil {
		t.Fatal(err)
	}
	if q.ID != 0xbeef || !q.RecursionDesired {
		t.Fatalf("header = %+v", q)
	}
	if string(q.Name) != "www.example.com" {
		t.Fatalf("Name = %q", q.Name)
	}
	if q.Type != TypeA || q.Class != ClassIN {
		t.Fatalf("type/class = %v/%v", q.Type, q.Class)
	}
	if len(q.Raw) != len(wire)-12 || !bytes.Equal(q.Raw, wire[12:]) {
		t.Fatalf("Raw mismatch")
	}
	// The longest legal name: 253 characters, 255 octets on the wire.
	if err := DecodeQueryInto(rawQuery(253), &q); err != nil || len(q.Name) != 253 {
		t.Fatalf("253-char name: err = %v, decoded %d chars", err, len(q.Name))
	}
}

// rawQuery hand-encodes an A query whose name is n characters of
// 63-octet labels — past Encode's own length check.
func rawQuery(n int) []byte {
	msg := []byte{0x12, 0x34, 0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	for n > 0 {
		l := min(n, 63)
		msg = append(msg, byte(l))
		msg = append(msg, bytes.Repeat([]byte{'a'}, l)...)
		if n -= l; n > 0 {
			n-- // the dot between labels
		}
	}
	return append(msg, 0, 0, 1, 0, 1)
}

// TestDecodeQueryIntoNameBoundMatchesDecode: both decoders draw the
// 255-octet wire bound at the same name length.
func TestDecodeQueryIntoNameBoundMatchesDecode(t *testing.T) {
	var q ServerQuery
	for _, n := range []int{253, 254} {
		errQ := DecodeQueryInto(rawQuery(n), &q)
		_, errD := Decode(rawQuery(n))
		if (errQ == nil) != (errD == nil) {
			t.Errorf("%d-char name: DecodeQueryInto err = %v, Decode err = %v", n, errQ, errD)
		}
	}
}

func TestDecodeQueryIntoRejects(t *testing.T) {
	query, _ := NewQuery(1, "a.example", TypeAAAA).Encode()
	resp := append([]byte(nil), query...)
	resp[2] |= 0x80 // QR bit

	twoQ := append([]byte(nil), query...)
	twoQ[5] = 2

	compressed := append([]byte(nil), query[:12]...)
	compressed = append(compressed, 0xc0, 0x0c, 0, 1, 0, 1)

	cases := []struct {
		name string
		msg  []byte
		want error
	}{
		{"254-char name", rawQuery(254), ErrNameTooLong},
		{"short", []byte{1, 2, 3}, ErrTruncated},
		{"response", resp, ErrNotAQuery},
		{"two questions", twoQ, ErrBadQuestion},
		{"compressed qname", compressed, ErrBadPointer},
		{"truncated name", query[:14], ErrTruncated},
	}
	var q ServerQuery
	for _, c := range cases {
		if err := DecodeQueryInto(c.msg, &q); err != c.want {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// The raw-echo reply must be byte-identical to the parsed-question
// encoder for normalized names — that is what lets the serving layer
// answer off DecodeQueryInto scratch without re-deriving strings.
func TestAppendReplyRawMatchesAppendReply(t *testing.T) {
	names := []string{"20010db80000000000000000000000ff.live.hitlist6.test", "x.y", ""}
	rdata := []byte{127, 0, 0, 2}
	for _, name := range names {
		wire, err := NewQuery(7, name, TypeA).Encode()
		if err != nil {
			t.Fatal(err)
		}
		var q ServerQuery
		if err := DecodeQueryInto(wire, &q); err != nil {
			t.Fatal(err)
		}
		h := Header{ID: 7, Response: true, RecursionDesired: true, Authoritative: true}
		for _, ansType := range []Type{0, TypeA} {
			want, err := AppendReply(nil, h, Question{Name: name, Type: TypeA, Class: ClassIN}, ansType, 300, rdata)
			if err != nil {
				t.Fatal(err)
			}
			got := AppendReplyRaw(nil, h, q.Raw, ansType, 300, rdata)
			if !bytes.Equal(got, want) {
				t.Errorf("name %q ansType %v:\n got %x\nwant %x", name, ansType, got, want)
			}
		}
	}
}

// The server-side decode is the serving layer's per-query hot path; with
// a warmed scratch it must not allocate.
func TestDecodeQueryIntoAlloc(t *testing.T) {
	wire, err := NewQuery(42, "20010db80000000000000000000000ff.live.hitlist6.test", TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var q ServerQuery
	if err := DecodeQueryInto(wire, &q); err != nil { // warm the name buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeQueryInto(wire, &q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeQueryInto allocs/op = %v, want 0", allocs)
	}
}
