package serve

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hitlist6/internal/dnswire"
)

// FuzzRespond runs arbitrary packets through DNSResponder.Respond over a
// small published snapshot with one warm Scratch and one reused reply
// buffer, the way a server goroutine calls it. The contract: never a
// panic, and the reply is either nil (the packet is dropped) or a message
// dnswire.Decode parses, marked as a response and carrying the query's
// ID. The committed corpus (testdata/fuzz/FuzzRespond) holds a hit, a
// miss, an out-of-zone query, a non-IN class, a response packet, a short
// packet, a 253-character and a 254-character question name.
func FuzzRespond(f *testing.F) {
	snap, _ := testSnapshot(f)
	h := NewHandle()
	h.Publish(snap)
	r := NewDNSResponder(h, "hitlist6.test")
	var sc Scratch
	out := make([]byte, 0, MaxUDPReply)

	f.Fuzz(func(t *testing.T, msg []byte) {
		out = r.Respond(msg, out[:0], &sc)
		if out == nil {
			return
		}
		m, err := dnswire.Decode(out)
		if err != nil {
			t.Fatalf("reply to %x does not decode: %v", msg, err)
		}
		if len(msg) < 2 || m.Header.ID != binary.BigEndian.Uint16(msg) || !m.Header.Response {
			t.Fatalf("reply to %x has header %+v", msg, m.Header)
		}
	})
}

// TestDNSFormErrOnOverlongName: a question name one character past the
// 253-character limit is a malformed query — FORMERR with the query's
// ID, never an echo of a question no decoder would accept.
func TestDNSFormErrOnOverlongName(t *testing.T) {
	r := NewDNSResponder(NewHandle(), "hitlist6.test")
	msg := []byte{0xab, 0xcd, 0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	for _, l := range []int{63, 63, 63, 62} { // 254 characters with the dots
		msg = append(msg, byte(l))
		msg = append(msg, bytes.Repeat([]byte{'a'}, l)...)
	}
	msg = append(msg, 0, 0, 1, 0, 1)
	m, err := dnswire.Decode(r.Respond(msg, nil, &Scratch{}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.ID != 0xabcd || m.Header.RCode != dnswire.RCodeFormErr {
		t.Fatalf("header = %+v, want FORMERR with ID 0xabcd", m.Header)
	}
}
