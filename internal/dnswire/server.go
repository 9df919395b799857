package dnswire

import (
	"encoding/binary"
	"errors"
)

// Server-side decode errors.
var (
	// ErrNotAQuery means the message has the response bit set or a
	// non-standard opcode — nothing a query server should answer.
	ErrNotAQuery = errors.New("dnswire: message is not a standard query")
	// ErrBadQuestion means the question count is not exactly one, which
	// is the only shape a lookup server answers (rbldnsd rejects these
	// the same way).
	ErrBadQuestion = errors.New("dnswire: expected exactly one question")
)

// ServerQuery is the zero-allocation server-side view of one received
// query: the handful of header fields a responder echoes, the question
// name in normalized text form, and the raw wire bytes of the question
// section for verbatim echo into the reply. Name's backing array is
// reused across DecodeQueryInto calls on the same ServerQuery, so a
// warmed scratch decodes without allocating; Raw aliases the decoded
// message and is only valid while the caller holds the packet buffer.
type ServerQuery struct {
	ID               uint16
	RecursionDesired bool
	Type             Type
	Class            Class

	// Name is the question name, lowercased and dot-separated with no
	// trailing dot — the form NormalizeName produces.
	Name []byte

	// Raw is the wire encoding of the question section (name, type,
	// class), a subslice of the message passed to DecodeQueryInto.
	Raw []byte
}

// DecodeQueryInto parses the header and single question of a wire-format
// query into q, reusing q's scratch buffers — the server-side counterpart
// of the scanner's query templates: no strings are built and nothing
// allocates once q's name buffer has grown to the workload's largest
// qname. Compressed question names are rejected (queries never carry
// them; a pointer in the question is either malformed or hostile), as are
// responses, non-zero opcodes and multi-question messages. Bytes past the
// question section (e.g. an EDNS OPT record) are ignored.
func DecodeQueryInto(msg []byte, q *ServerQuery) error {
	if len(msg) < 12 {
		return ErrTruncated
	}
	flags := binary.BigEndian.Uint16(msg[2:])
	if flags&0x8000 != 0 || (flags>>11)&0xf != 0 {
		return ErrNotAQuery
	}
	if binary.BigEndian.Uint16(msg[4:]) != 1 {
		return ErrBadQuestion
	}
	q.ID = binary.BigEndian.Uint16(msg)
	q.RecursionDesired = flags&0x0100 != 0
	q.Name = q.Name[:0]
	off := 12
	total := 0
	for {
		if off >= len(msg) {
			return ErrTruncated
		}
		b := int(msg[off])
		if b == 0 {
			off++
			break
		}
		if b&0xc0 != 0 {
			return ErrBadPointer
		}
		if off+1+b > len(msg) {
			return ErrTruncated
		}
		// RFC 1035 caps a name at 255 wire octets: the length-prefixed
		// labels plus the root octet — the bound Decode enforces too.
		if total += b + 1; total+1 > 255 {
			return ErrNameTooLong
		}
		if len(q.Name) > 0 {
			q.Name = append(q.Name, '.')
		}
		for _, c := range msg[off+1 : off+1+b] {
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			q.Name = append(q.Name, c)
		}
		off += 1 + b
	}
	if off+4 > len(msg) {
		return ErrTruncated
	}
	q.Type = Type(binary.BigEndian.Uint16(msg[off:]))
	q.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
	q.Raw = msg[12 : off+4]
	return nil
}

// AppendReplyRaw is AppendReply with the question section echoed verbatim
// from the received query instead of re-encoded from a parsed Question —
// the reply path of a server that decoded the query with DecodeQueryInto.
// For a normalized query name the output is byte-identical to
// AppendReply's (pinned by TestAppendReplyRawMatchesAppendReply); because
// the question bytes are copied rather than parsed, the call cannot fail,
// and with enough capacity in dst it does not allocate. rawQuestion must
// be a well-formed question section as produced by DecodeQueryInto.
func AppendReplyRaw(dst []byte, h Header, rawQuestion []byte, ansType Type, ttl uint32, rdata []byte) []byte {
	size := 12 + len(rawQuestion)
	if ansType != 0 {
		size += 2 + 2 + 2 + 4 + 2 + len(rdata)
	}
	if cap(dst)-len(dst) < size {
		grown := make([]byte, len(dst), len(dst)+size)
		copy(grown, dst)
		dst = grown
	}
	start := len(dst)
	dst = dst[:start+12]
	binary.BigEndian.PutUint16(dst[start:], h.ID)
	binary.BigEndian.PutUint16(dst[start+2:], h.flags())
	binary.BigEndian.PutUint16(dst[start+4:], 1)
	an := uint16(0)
	if ansType != 0 {
		an = 1
	}
	binary.BigEndian.PutUint16(dst[start+6:], an)
	binary.BigEndian.PutUint16(dst[start+8:], 0)
	binary.BigEndian.PutUint16(dst[start+10:], 0)
	dst = append(dst, rawQuestion...)
	if ansType != 0 {
		if len(rawQuestion) > 0 && rawQuestion[0] == 0 {
			// Root question name: no compression target, same as
			// AppendReply.
			dst = append(dst, 0)
		} else {
			// Compression pointer to the question name at offset 12.
			dst = append(dst, 0xc0, 0x0c)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(ansType))
		dst = binary.BigEndian.AppendUint16(dst, uint16(ClassIN))
		dst = binary.BigEndian.AppendUint32(dst, ttl)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(rdata)))
		dst = append(dst, rdata...)
	}
	return dst
}
