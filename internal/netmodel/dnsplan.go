package netmodel

import (
	"hitlist6/internal/dnswire"
	"hitlist6/internal/ip6"
)

// planWireMax bounds a single-question forged reply as
// dnswire.AppendReply sizes it: the 12-byte header, the question (name
// length plus 2, type, class) and one A or AAAA answer (pointer, type,
// class, TTL, rdlength: 12 bytes, then at most 16 of rdata). A name it
// can encode is at most 253 characters plus one trailing dot, so it
// never grows a buffer this size.
const planWireMax = 12 + 254 + 2 + 4 + 12 + 16

// zeroRdata is the placeholder rdata of a forged-reply template.
var zeroRdata [16]byte

// DNSPlan is everything a DNS probe's outcome depends on that is the same
// for every target: whether the GFW can inject at all (an era covers the
// day and the question name is blocked), the era's answer type and the
// forged reply encoded once as a template, and the facts the target's
// own answer reads off the question (whether the name is in our zone,
// its synthetic AAAA). A plan is valid for one query and one day; the
// scan engine makes one per scan and shares it, read-only, across every
// UDP/53 probe of that scan (Probe.Plan).
type DNSPlan struct {
	query *dnswire.Message
	day   int

	// inject is set when an injection era covers day and the question
	// is blocked: only then does a probe look its target's AS up.
	inject bool
	mode   InjectionMode

	// The forged reply with ID, TTL and rdata zeroed: inline[:n] for a
	// single-question query (no allocation, so a per-call plan stays on
	// the stack), ext for a multi-question one. The answer is the last
	// thing in the message, so its TTL and rdata sit at fixed offsets.
	inline        [planWireMax]byte
	n             int
	ext           []byte
	ttlOff, rdOff int

	inOurZone bool
	aaaa      ip6.Addr // syntheticAAAA of the question name
}

// PlanDNS settles, once, what a DNS probe carrying query on day will
// meet regardless of its target. A nil or question-less query yields a
// plan under which nothing answers. A blocked question that cannot be
// encoded panics: the scanner checks its queries are encodable.
func (n *Network) PlanDNS(query *dnswire.Message, day int) (p DNSPlan) {
	p.query, p.day = query, day
	if query == nil || len(query.Questions) == 0 {
		return p
	}
	q := query.Questions[0]
	p.inOurZone = n.OurZone != "" && nameInZone(q.Name, n.OurZone)
	p.aaaa = syntheticAAAA(q.Name)
	g := n.GFW
	if g == nil {
		return p
	}
	era, ok := g.eraAt(day)
	if !ok || !g.Blocked(q.Name) {
		// Unblocked domains — including the authors' own — draw no
		// answer at all, not even a DNS error.
		return p
	}
	p.inject, p.mode = true, era.Mode
	hdr := dnswire.Header{
		Response:           true,
		RecursionDesired:   query.Header.RecursionDesired,
		RecursionAvailable: true,
		RCode:              dnswire.RCodeNoError,
	}
	ansType, rdlen := dnswire.TypeA, 4
	if era.Mode == InjectTeredo {
		ansType, rdlen = dnswire.TypeAAAA, 16
	}
	var err error
	if len(query.Questions) == 1 {
		var wire []byte
		wire, err = dnswire.AppendReply(p.inline[:0], hdr, q, ansType, 0, zeroRdata[:rdlen])
		p.n = len(wire)
	} else {
		reply := &dnswire.Message{Header: hdr, Questions: query.Questions,
			Answers: []dnswire.RR{{Name: q.Name, Type: ansType}}}
		p.ext, err = reply.Encode()
	}
	if err != nil {
		panic("netmodel: encoding injected response: " + err.Error())
	}
	p.rdOff = len(p.template()) - rdlen
	p.ttlOff = p.rdOff - 6 // TTL(4) and rdlength(2) precede the rdata
	return p
}

// template returns the forged-reply template (empty unless inject).
func (p *DNSPlan) template() []byte {
	if p.ext != nil {
		return p.ext
	}
	return p.inline[:p.n]
}
