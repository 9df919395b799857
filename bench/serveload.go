package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"hitlist6/internal/dnswire"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/serve"
)

const benchZone = "hitlist6.serve"

// datasets are the eight DNS subzones of the responder, in the order the
// live query mix cycles through them: "live", the five protocols, "alias"
// and "gfw".
var datasets = []string{"live", "icmp", "tcp443", "tcp80", "udp443", "udp53", "alias", "gfw"}

// protoDatasets are the per-protocol subzones, indexed by
// netmodel.Protocol.
var protoDatasets = datasets[1 : 1+netmodel.NumProtocols]

// sampleEvery is the DNS latency sampling stride: one query in sixteen is
// timed from ReadFrom's return to WriteTo's call, so the two clock reads
// cost the other fifteen nothing.
const sampleEvery = 16

// dnsWant is the reply the checker expects for one query: the rcode, and
// for a hit the answer's TTL (the responder's fixed TTL, or the matched
// prefix length for the alias dataset).
type dnsWant struct {
	hit bool
	ttl uint32
}

// memConn is an in-memory net.PacketConn that drives serve.ServeUDP
// without the kernel: ReadFrom hands out prepared query wires one by one
// (closed loop — the next query is read when the previous reply has been
// written), WriteTo checks each reply against the expected answer, and
// after the last query ReadFrom returns net.ErrClosed so the serve loop
// returns nil. What remains inside ServeUDP is the program's own service
// time: read, decode, lookup, encode, write.
type memConn struct {
	wires [][]byte
	want  []dnsWant
	total int // queries to serve; wires are cycled when total > len(wires)

	next       int // queries handed out
	replies    int
	wrong      int
	firstWrong string

	sampleStart time.Time
	sampling    bool
	samples     []float64 // sampled per-query service times, ns

	// corrupt, when set, falsifies the expectation for every query (the
	// test-only fault that proves a wrong answer fails the run).
	corrupt bool
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "bench-client" }

func (c *memConn) ReadFrom(p []byte) (int, net.Addr, error) {
	if c.next >= c.total {
		return 0, nil, net.ErrClosed
	}
	i := c.next % len(c.wires)
	n := copy(p, c.wires[i])
	// The TxID tells the queries of successive cycles apart.
	binary.BigEndian.PutUint16(p, uint16(c.next))
	c.sampling = c.next%sampleEvery == 0
	c.next++
	if c.sampling {
		c.sampleStart = time.Now()
	}
	return n, memAddr{}, nil
}

func (c *memConn) WriteTo(p []byte, _ net.Addr) (int, error) {
	if c.sampling {
		c.samples = append(c.samples, float64(time.Since(c.sampleStart)))
		c.sampling = false
	}
	q := c.next - 1
	c.replies++
	if msg := c.check(p, uint16(q), c.want[q%len(c.want)]); msg != "" {
		c.wrong++
		if c.firstWrong == "" {
			c.firstWrong = fmt.Sprintf("query %d: %s", q, msg)
		}
	}
	return len(p), nil
}

// check compares one reply with the expected answer: TxID, rcode, answer
// presence and TTL. It reads fixed offsets only — the reply is header,
// echoed question and at most one compressed-name A record — so the
// check stays far below the service time it sits beside.
func (c *memConn) check(p []byte, id uint16, want dnsWant) string {
	if c.corrupt {
		want.hit = !want.hit
	}
	if len(p) < 12 {
		return "short reply"
	}
	if got := binary.BigEndian.Uint16(p); got != id {
		return fmt.Sprintf("TxID %d, want %d", got, id)
	}
	rcode := dnswire.RCode(p[3] & 0xf)
	answers := binary.BigEndian.Uint16(p[6:])
	if !want.hit {
		if rcode != dnswire.RCodeNXDomain || answers != 0 {
			return fmt.Sprintf("miss answered rcode %v with %d answers", rcode, answers)
		}
		return ""
	}
	if rcode != dnswire.RCodeNoError || answers != 1 || len(p) < 12+16 {
		return fmt.Sprintf("hit answered rcode %v with %d answers", rcode, answers)
	}
	// The A record closes the reply: … TTL(4) RDLENGTH(2) RDATA(4).
	if ttl := binary.BigEndian.Uint32(p[len(p)-10:]); ttl != want.ttl {
		return fmt.Sprintf("TTL %d, want %d", ttl, want.ttl)
	}
	return ""
}

func (c *memConn) Close() error                     { c.next = c.total; return nil }
func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// queryBlock is one prepared batch of queries against a published
// snapshot with the truth computed before the block runs.
type queryBlock struct {
	addrs []ip6.Addr
	wires [][]byte
	want  []dnsWant
	truth []serve.Answer // per address, from the snapshot
}

// pickMember draws a uniform member of a frozen set, or false when the
// set is empty.
func pickMember(r *rng.Stream, set *ip6.SortedShardSet) (ip6.Addr, bool) {
	n := set.Len()
	if n == 0 {
		return ip6.Addr{}, false
	}
	k := r.Intn(n)
	for sh := 0; sh < ip6.AddrShards; sh++ {
		span := set.Shard(sh)
		if k < len(span) {
			return span[k], true
		}
		k -= len(span)
	}
	return ip6.Addr{}, false
}

// queryTemplates holds one encoded query per dataset for the all-zero
// address; a block patches the 32 hex digits of the first label in a
// copy instead of re-encoding a million names.
type queryTemplates map[string][]byte

func newQueryTemplates(responder *serve.DNSResponder) (queryTemplates, error) {
	t := make(queryTemplates, len(datasets))
	for _, ds := range datasets {
		w, err := dnswire.NewQuery(0, responder.QueryName(ip6.Addr{}, ds), dnswire.TypeA).Encode()
		if err != nil {
			return nil, fmt.Errorf("encoding %s query template: %w", ds, err)
		}
		t[ds] = w
	}
	return t, nil
}

const hexDigits = "0123456789abcdef"

// wire returns the query for (a, dataset): the template with the address
// label patched in. The label starts after the 12-byte header and its
// length octet.
func (t queryTemplates) wire(a ip6.Addr, dataset string) []byte {
	w := append([]byte(nil), t[dataset]...)
	for i, b := range a {
		w[13+2*i] = hexDigits[b>>4]
		w[14+2*i] = hexDigits[b&0xf]
	}
	return w
}

// newQueryBlock prepares n queries against snap. Every dataset in mix
// gets an equal share; half of each share are current members of that
// dataset (drawn from the snapshot's own frozen index, or from inside an
// alias prefix), the other half uniform-random addresses, which miss.
// The expected reply of every query comes from snap.Lookup, computed
// here, before the block runs.
func newQueryBlock(r *rng.Stream, snap *serve.Snapshot, tmpl queryTemplates, mix []string, n int) *queryBlock {
	b := &queryBlock{
		addrs: make([]ip6.Addr, n),
		wires: make([][]byte, n),
		want:  make([]dnsWant, n),
		truth: make([]serve.Answer, n),
	}
	var aliased []ip6.Prefix
	if snap.Aliased != nil {
		aliased = snap.Aliased.Prefixes()
	}
	for i := 0; i < n; i++ {
		ds := mix[i%len(mix)]
		a := ip6.AddrFromUint64s(r.Uint64(), r.Uint64())
		if (i/len(mix))%2 == 0 {
			var m ip6.Addr
			ok := false
			switch ds {
			case "live":
				m, ok = pickMember(r, snap.Any)
			case "gfw":
				m, ok = pickMember(r, snap.Injected)
			case "alias":
				if len(aliased) > 0 {
					m, ok = aliased[r.Intn(len(aliased))].RandomAddr(r), true
				}
			default:
				for p, label := range protoDatasets {
					if ds == label {
						m, ok = pickMember(r, snap.PerProto[p])
					}
				}
			}
			if ok {
				a = m
			}
		}
		ans := snap.Lookup(a)
		b.addrs[i], b.truth[i] = a, ans
		b.wires[i] = tmpl.wire(a, ds)
		b.want[i] = wantFor(ans, ds)
	}
	return b
}

// wantFor derives the expected DNS reply for one dataset from the
// snapshot's full answer.
func wantFor(ans serve.Answer, dataset string) dnsWant {
	switch dataset {
	case "live":
		return dnsWant{hit: ans.Live, ttl: serve.ServeTTL}
	case "alias":
		return dnsWant{hit: ans.Aliased, ttl: uint32(ans.AliasPrefix.Bits())}
	case "gfw":
		return dnsWant{hit: ans.Injected, ttl: serve.ServeTTL}
	}
	for p, label := range protoDatasets {
		if dataset == label {
			return dnsWant{hit: ans.Protos.Has(netmodel.Protocol(p)), ttl: serve.ServeTTL}
		}
	}
	return dnsWant{}
}

// dnsResult is one DNS block's outcome.
type dnsResult struct {
	queries int
	wrong   int
	detail  string
	wall    time.Duration
	samples []float64
}

// runDNS serves total queries (cycling the block's wires) through
// serve.ServeUDP over a memConn and returns the wall time spent inside
// the serve loop.
func runDNS(responder *serve.DNSResponder, b *queryBlock, total int, corrupt bool) (dnsResult, error) {
	conn := &memConn{wires: b.wires, want: b.want, total: total, corrupt: corrupt,
		samples: make([]float64, 0, total/sampleEvery+1)}
	t0 := time.Now()
	err := serve.ServeUDP(conn, responder)
	wall := time.Since(t0)
	if err != nil {
		return dnsResult{}, fmt.Errorf("ServeUDP: %w", err)
	}
	res := dnsResult{queries: total, wrong: conn.wrong + (total - conn.replies), detail: conn.firstWrong, wall: wall, samples: conn.samples}
	if conn.replies != total && res.detail == "" {
		res.detail = fmt.Sprintf("%d of %d queries answered", conn.replies, total)
	}
	return res, nil
}

// bodyWriter is the smallest http.ResponseWriter: status, headers and a
// reusable body buffer, so the timed call is the handler and not a
// recorder's bookkeeping.
type bodyWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *bodyWriter) Header() http.Header         { return w.hdr }
func (w *bodyWriter) WriteHeader(code int)        { w.code = code }
func (w *bodyWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// httpResult is one HTTP block's outcome.
type httpResult struct {
	queries int
	wrong   int
	detail  string
	wall    time.Duration // Σ ServeHTTP wall; checking the body is outside it
	qps     []float64     // throughput of each httpChunk consecutive queries
}

// httpChunk is how many consecutive HTTP queries make one throughput
// sample. http_qps is the median sample: building requests and decoding
// bodies for the check is the harness's garbage, and the collections it
// triggers land on a few chunks instead of on the metric.
const httpChunk = 400

// runHTTP issues GET /v1/query for the first n addresses of the block
// through the handler's ServeHTTP, timing each call and checking each
// body against the snapshot's truth outside the timed interval.
func runHTTP(handler http.Handler, b *queryBlock, n int) httpResult {
	res := httpResult{queries: n}
	w := &bodyWriter{hdr: make(http.Header)}
	var chunk time.Duration
	for q := 0; q < n; q++ {
		i := q % len(b.addrs)
		req := httptest.NewRequest(http.MethodGet, "/v1/query?addr="+b.addrs[i].String(), nil)
		w.code = http.StatusOK
		w.body.Reset()
		t0 := time.Now()
		handler.ServeHTTP(w, req)
		chunk += time.Since(t0)
		if (q+1)%httpChunk == 0 || q+1 == n {
			res.qps = append(res.qps, float64(q%httpChunk+1)/chunk.Seconds())
			res.wall += chunk
			chunk = 0
		}
		if msg := checkHTTP(w, b.addrs[i], b.truth[i]); msg != "" {
			res.wrong++
			if res.detail == "" {
				res.detail = fmt.Sprintf("query %d (%s): %s", q, b.addrs[i], msg)
			}
		}
	}
	return res
}

// checkHTTP compares one /v1/query body with the snapshot's answer.
func checkHTTP(w *bodyWriter, a ip6.Addr, want serve.Answer) string {
	if w.code != http.StatusOK {
		return fmt.Sprintf("HTTP %d", w.code)
	}
	var got serve.HTTPAnswer
	if err := json.Unmarshal(w.body.Bytes(), &got); err != nil {
		return "malformed body: " + err.Error()
	}
	ok := got.Addr == a.String() && got.Day == want.Day && got.Generation == want.Generation &&
		got.Live == want.Live && got.Aliased == want.Aliased && got.GFWInjected == want.Injected
	for p, label := range protoDatasets {
		ok = ok && got.Protocols[label] == want.Protos.Has(netmodel.Protocol(p))
	}
	if want.Aliased {
		ok = ok && got.AliasPrefix == want.AliasPrefix.String()
	}
	if !ok {
		return fmt.Sprintf("body %s does not match snapshot answer %+v", bytes.TrimSpace(w.body.Bytes()), want)
	}
	return ""
}
