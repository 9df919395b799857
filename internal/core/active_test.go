package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hitlist6/internal/gfw"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
	"hitlist6/internal/sources"
	"hitlist6/internal/tga"
)

// lookupActive returns a's row state in the active table.
func lookupActive(s *Service, a ip6.Addr) (targetState, bool) {
	sh := ip6.ShardOf(a)
	i, ok := slices.BinarySearchFunc(s.active.addrs[sh], a, ip6.Addr.Compare)
	if !ok {
		return targetState{}, false
	}
	return s.active.state[sh][i], true
}

// TestDigestSinkRefusesMisplacedResult: the sink names a result's table
// row by its position in the scan, so a success that is not the scan
// set's entry at that position fails the scan, with nothing mutated.
func TestDigestSinkRefusesMisplacedResult(t *testing.T) {
	n, feeds := tinyWorld(t)
	s := NewService(DefaultConfig(1), n, feeds, nil)
	runDays(t, s, []int{0})
	web := ip6.MustParseAddr("2001:100::80")
	before, ok := lookupActive(s, web)
	if !ok {
		t.Fatal("web host not active")
	}
	injBefore, anyBefore := s.Tracker().InjectedSeenLen(), s.EverResponsiveAnyLen()
	s.buildScanSet(7, &ScanRecord{})
	sh := ip6.ShardOf(web)
	row := slices.Index(s.active.addrs[sh], web)

	// A stream over a scan set whose web row was swapped for another
	// responder of the same shard: an aliased address answers ICMP.
	var stranger ip6.Addr
	alias := ip6.MustParsePrefix("2001:100:a::/64")
	for i := uint64(0); ; i++ {
		if stranger = alias.NthAddr(i); ip6.ShardOf(stranger) == sh {
			break
		}
	}
	shards := slices.Clone(s.active.addrs)
	shards[sh] = slices.Clone(shards[sh])
	shards[sh][row] = stranger
	digests := make([]shardDigest, ip6.AddrShards)
	_, err := s.mainScanner.StreamFrom(context.Background(), scan.ShardSlices(shards), s.cfg.Protocols, 7, s.digestSink(digests))
	if err == nil || !strings.Contains(err.Error(), "scan-set row") {
		t.Fatalf("stream over a foreign scan set: err = %v", err)
	}

	// A batch reaching past the shard's rows.
	nprotos := len(s.cfg.Protocols)
	b := &scan.Batch{Shard: sh, Results: make([]scan.Result, nprotos*(len(s.active.addrs[sh])+1))}
	last := &b.Results[len(b.Results)-1]
	last.Target, last.Proto, last.Success = web, s.cfg.Protocols[nprotos-1], true
	if err := s.digestSink(make([]shardDigest, ip6.AddrShards))(b); err == nil {
		t.Fatal("sink accepted a result past the scan set")
	}

	if st, _ := lookupActive(s, web); st != before {
		t.Errorf("refused scan changed web's state: %+v → %+v", before, st)
	}
	if inj, ever := s.Tracker().InjectedSeenLen(), s.EverResponsiveAnyLen(); inj != injBefore || ever != anyBefore {
		t.Errorf("refused scan mutated evidence: injected %d→%d ever-responsive %d→%d", injBefore, inj, anyBefore, ever)
	}
}

// refWorld is a random tiny world for TestActiveTableMatchesReference:
// hosts and aliased /64s in a cloud /32, injected-DNS ghosts and hosts in
// a CN prefix, feeds that release a pool of addresses over time, and a
// TGA feed drawing from a second pool.
type refWorld struct {
	net      *netmodel.Network
	feeds    []*sources.Feed
	block    *ip6.PrefixSet
	pool     []ip6.Addr
	from     []int // pool[i] enters the feeds on day from[i]
	tgaPool  []ip6.Addr
	seed     uint64
	nfeeds   int
	deployAt int
}

func newRefWorld(seed uint64) *refWorld {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	ases := []*netmodel.AS{
		{ASN: 100, Name: "Cloud", Country: "DE", Category: netmodel.CatCloud,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("2001:100::/32")}, AnnouncedFrom: []int{0}},
		{ASN: 4134, Name: "CN", Country: "CN", Category: netmodel.CatISP,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("240e::/24")}, AnnouncedFrom: []int{0}},
	}
	w := &refWorld{net: netmodel.NewNetwork(seed, netmodel.NewASTable(ases)), seed: seed, nfeeds: 1 + r.IntN(3)}
	protos := []netmodel.Protocol{netmodel.ICMP, netmodel.TCP443, netmodel.TCP80, netmodel.UDP443, netmodel.UDP53}
	addr := func(s string, iid uint64) ip6.Addr {
		p := ip6.MustParsePrefix(s)
		return p.NthAddr(iid)
	}
	host := func(a ip6.Addr) {
		var set []netmodel.Protocol
		for _, p := range protos {
			if r.IntN(2) == 0 {
				set = append(set, p)
			}
		}
		born := r.IntN(60)
		death := netmodel.Forever
		if r.IntN(3) == 0 {
			death = born + 10 + r.IntN(120)
		}
		w.net.AddHost(&netmodel.Host{Addr: a, Protos: netmodel.ProtoSetOf(set...), BornDay: born, DeathDay: death,
			UptimePermille: uint16(500 + r.IntN(501)), FP: netmodel.FPLinux, DNS: netmodel.DNSRefusing, MTU: 1500})
	}
	// Cloud /64s 2001:100:X::/64; X = 7 is blocklisted.
	for i := 0; i < 60+r.IntN(60); i++ {
		a := addr(fmt.Sprintf("2001:100:%x::/64", r.IntN(8)), uint64(1+r.IntN(40)))
		if r.IntN(3) > 0 {
			host(a)
		}
		w.pool = append(w.pool, a)
	}
	// Aliased /64s, some born after their addresses enter the feeds.
	for i := 0; i < 1+r.IntN(3); i++ {
		p := ip6.MustParsePrefix(fmt.Sprintf("2001:100:f%x::/64", i))
		w.net.AddAlias(&netmodel.AliasRule{Prefix: p, AS: ases[0], Protos: netmodel.ProtoSetOf(netmodel.ICMP, netmodel.TCP80),
			BornDay: r.IntN(40), DeathDay: netmodel.Forever, Backends: 1, FP: netmodel.FPBSD, MTU: 1500})
		for j := 0; j < 2+r.IntN(4); j++ {
			w.pool = append(w.pool, p.NthAddr(uint64(100+r.IntN(1000))))
		}
	}
	// CN: ghosts that only ever draw injected answers, and a few hosts.
	for i := 0; i < 10+r.IntN(20); i++ {
		a := addr("240e::/64", uint64(1+r.IntN(500)))
		if r.IntN(4) == 0 {
			host(a)
		}
		w.pool = append(w.pool, a)
	}
	for range w.pool {
		w.from = append(w.from, r.IntN(80))
	}
	for i := 0; i < 40; i++ {
		a := addr(fmt.Sprintf("2001:100:%x::/64", r.IntN(8)), uint64(200+r.IntN(40)))
		if r.IntN(2) == 0 {
			host(a)
		}
		w.tgaPool = append(w.tgaPool, a)
	}
	g := netmodel.NewGFWModel(seed)
	g.AffectedASNs[4134] = true
	g.BlockedDomains["google.com"] = true
	g.Eras = []netmodel.InjectionEra{{StartDay: 20 + r.IntN(40), EndDay: 150 + r.IntN(100), Mode: netmodel.InjectTeredo}}
	w.net.GFW = g
	w.deployAt = netmodel.Forever
	if r.IntN(3) > 0 {
		w.deployAt = 60 + r.IntN(100)
	}
	w.block = ip6.NewPrefixSet()
	w.block.Add(ip6.MustParsePrefix("2001:100:7::/48"))
	for k := 0; k < w.nfeeds; k++ {
		w.feeds = append(w.feeds, sources.Recurring(fmt.Sprintf("feed%d", k), 0, netmodel.Forever, func(day int) []ip6.Addr {
			return w.feedDay(k, day)
		}))
	}
	return w
}

// feedDay is what feed k yields on day: a day-dependent half of the pool
// entries released by then.
func (w *refWorld) feedDay(k, day int) []ip6.Addr {
	var out []ip6.Addr
	for i, a := range w.pool {
		if w.from[i] <= day && rng.Mix(w.seed, uint64(k), uint64(day), uint64(i))%2 == 0 {
			out = append(out, a)
		}
	}
	return out
}

// tgaDay is what the TGA feed proposes on day.
func (w *refWorld) tgaDay(day int) []ip6.Addr {
	var out []ip6.Addr
	for i, a := range w.tgaPool {
		if rng.Mix(w.seed, 0x7a, uint64(day), uint64(i))%4 == 0 {
			out = append(out, a)
		}
	}
	return out
}

// refTGAFeed proposes refWorld.tgaDay, whatever the seeds.
type refTGAFeed struct{ w *refWorld }

func (refTGAFeed) Name() string { return "tga-ref" }

func (f refTGAFeed) Candidates(day int, _ *tga.SeedView) scan.TargetSource {
	return scan.SliceSource(f.w.tgaDay(day))
}

// refModel is the active window as a map, kept by the window's rules
// from what the service exposes: its input-dedup set and GFW drop list
// are the model's own, its blocklist and aliased prefixes are read from
// the service; responses come from probing each target one by one. It
// also keeps the last scan's clean responders, on any protocol and per
// protocol, every address that ever responded clean, every address that
// ever drew an injected answer, and the last scan's churn. Its
// alias-detection queue is kept with a table of every /64 ever queued,
// the way the service once kept it.
type refModel struct {
	rows     map[ip6.Addr]targetState
	seen     map[ip6.Addr]bool
	drop     map[ip6.Addr]bool // the deployed GFW drop list
	deployed bool

	seen64 map[ip6.Prefix]bool // every /64 an admitted address fell in
	queue  []ip6.Prefix        // the /64s waiting for an APD round, in admission order

	respAny, ever map[ip6.Addr]bool
	injected      map[ip6.Addr]bool
	resp          [netmodel.NumProtocols]map[ip6.Addr]bool

	firstResp, respAgain, unresp          int // the last scan's churn
	evicted, purged, dropped, tgaAdmitted int
}

func newRefModel() *refModel {
	return &refModel{rows: make(map[ip6.Addr]targetState), seen: make(map[ip6.Addr]bool), ever: make(map[ip6.Addr]bool),
		injected: make(map[ip6.Addr]bool), seen64: make(map[ip6.Prefix]bool)}
}

// admit runs the admission chain for one candidate.
func (m *refModel) admit(s *Service, aliased *ip6.PrefixSet, a ip6.Addr, day int) {
	if !a.IsGlobalUnicast() || m.seen[a] {
		return
	}
	m.seen[a] = true
	if s.block.Contains(a) || m.drop[a] || aliased.Contains(a) {
		return
	}
	m.rows[a] = targetState{firstDay: day, lastSuccessDay: -1}
	if p64 := ip6.Slash64(a); !m.seen64[p64] {
		m.seen64[p64] = true
		m.queue = append(m.queue, p64)
	}
}

// apdRound drains the queue as one alias-detection round does: /64s an
// aliased prefix of at most 64 bits covers leave it, the first maxNew of
// the rest are tested, and the others wait.
func (m *refModel) apdRound(aliased *ip6.PrefixSet, maxNew int) {
	var rest []ip6.Prefix
	taken := 0
	for _, p64 := range m.queue {
		if q, ok := aliased.Match(p64.Addr()); ok && q.Bits() <= 64 {
			continue
		}
		if taken < maxNew {
			taken++
			continue
		}
		rest = append(rest, p64)
	}
	m.queue = rest
}

// checkQueue compares the service's pending /64s with the model's queue,
// entry for entry.
func checkQueue(t *testing.T, s *Service, m *refModel, day int) {
	t.Helper()
	if !slices.Equal(s.pendingAPD64, m.queue) {
		t.Fatalf("day %d: pending /64s %v, model %v", day, s.pendingAPD64, m.queue)
	}
	if len(s.pending64) != len(m.queue) {
		t.Fatalf("day %d: %d pending /64s indexed, %d queued", day, len(s.pending64), len(m.queue))
	}
}

// responds probes a on every protocol: whether any probe succeeded,
// whether one drew an injected DNS answer, and the protocols whose
// success is not an injected DNS answer.
func responds(s *Service, a ip6.Addr, day int) (raw, injected bool, clean []netmodel.Protocol) {
	for _, p := range s.cfg.Protocols {
		r := s.Scanner().ProbeOne(a, p, day)
		if !r.Success {
			continue
		}
		raw = true
		if p == netmodel.UDP53 && gfw.ClassifyResult(r).Injected() {
			injected = true
		} else {
			clean = append(clean, p)
		}
	}
	return raw, injected, clean
}

// scan advances the model over one RunScan at day, the service's index
// scan; aliasedBefore is the aliased set from before the scan.
func (m *refModel) scan(t *testing.T, s *Service, w *refWorld, index, day int, aliasedBefore *ip6.PrefixSet) (scanned, evicted int) {
	for k := 0; k < w.nfeeds; k++ {
		for _, a := range w.feedDay(k, day) {
			m.admit(s, aliasedBefore, a, day)
		}
	}
	if index%s.cfg.APDEveryScans == 0 {
		m.apdRound(aliasedBefore, s.cfg.APDMaxNewCandidates)
	}
	if !m.deployed && day >= s.cfg.GFWFilterFromDay {
		// The drop list: every address that ever drew an injected answer
		// and never a clean one on any protocol.
		m.deployed, m.drop = true, make(map[ip6.Addr]bool)
		for a := range m.injected {
			if !m.ever[a] {
				m.drop[a] = true
			}
		}
		for a := range m.rows {
			if m.drop[a] {
				delete(m.rows, a)
				m.dropped++
			}
		}
	}
	// Admission filters against the aliased set and every round purges
	// what it detects, so whatever the set covers now was purged.
	for a := range m.rows {
		if s.aliased.Contains(a) {
			delete(m.rows, a)
			m.purged++
		}
	}
	for a, st := range m.rows {
		ref := st.lastSuccessDay
		if ref < 0 {
			ref = st.firstDay
		}
		if day-ref > s.cfg.UnresponsiveDays {
			delete(m.rows, a)
			evicted++
			if s.cfg.RetainUnresponsive && !s.unresponsive.Has(a) {
				t.Errorf("day %d: evicted %v not in the unresponsive pool", day, a)
			}
		}
	}
	m.evicted += evicted
	scanned = len(m.rows)
	respAny := make(map[ip6.Addr]bool)
	var resp [netmodel.NumProtocols]map[ip6.Addr]bool
	for p := range resp {
		resp[p] = make(map[ip6.Addr]bool)
	}
	for a, st := range m.rows {
		raw, injected, clean := responds(s, a, day)
		if injected {
			m.injected[a] = true
		}
		if len(clean) > 0 || (raw && !m.deployed) {
			st.lastSuccessDay = day
			m.rows[a] = st
		}
		for _, p := range clean {
			resp[p][a] = true
			respAny[a] = true
		}
	}
	m.firstResp, m.respAgain, m.unresp = 0, 0, 0
	for a := range respAny {
		switch {
		case m.respAny[a]:
		case m.ever[a]:
			m.respAgain++
		default:
			m.firstResp++
		}
		m.ever[a] = true
	}
	for a := range m.respAny {
		if !respAny[a] {
			m.unresp++
		}
	}
	m.respAny, m.resp = respAny, resp
	if s.cfg.TGAFeed != nil && s.EverResponsiveAnyLen() > 0 {
		round := make(map[ip6.Addr]bool)
		var resp []ip6.Addr
		for _, a := range w.tgaDay(day) {
			if m.seen[a] || round[a] {
				continue
			}
			round[a] = true
			if raw, _, _ := responds(s, a, day); raw {
				resp = append(resp, a)
			}
		}
		// The responders are fed back in address order.
		slices.SortFunc(resp, ip6.Addr.Compare)
		for _, a := range resp {
			m.admit(s, s.aliased, a, day)
			if _, ok := m.rows[a]; ok {
				m.tgaAdmitted++
			}
		}
	}
	return scanned, evicted
}

// checkEvidenceSeen asserts that every address the GFW tracker holds
// evidence for went through input dedup, and returns how many it
// checked. The deployment's purge list is drawn from that evidence, so
// this is why inputSeen alone keeps the purged addresses out of later
// input: a path that fed the tracker targets admission never saw would
// need a separate drop list again.
func checkEvidenceSeen(t *testing.T, s *Service, day int) int {
	t.Helper()
	n := 0
	for sh := 0; sh < ip6.AddrShards; sh++ {
		next := s.tracker.EvidenceSet().ShardCursor(sh)
		for {
			a, ok, err := next()
			if err != nil {
				t.Fatalf("day %d: reading GFW evidence: %v", day, err)
			}
			if !ok {
				break
			}
			if !s.inputSeen.HasInShard(sh, a) {
				t.Fatalf("day %d: GFW evidence %v never went through input dedup", day, a)
			}
			n++
		}
	}
	return n
}

// TestActiveTableMatchesReference runs random tiny worlds and configs
// against a map model of the active window: after every scan, every
// shard of the table is strictly ascending, holds only its own shard's
// addresses, and equals the model, rows and states. So does every shard
// of the last scan's responder columns, any-protocol and per protocol,
// and the record's clean-responder count and churn are the model's. The
// service's alias-detection queue, which it derives from the detector's
// history, equals the model's, kept with a table of every /64 queued.
// The GFW deployment drops what the model's own drop list names, and
// with a budget of 1 byte it walks a spilled ever-responsive set. Every
// address with GFW evidence is in inputSeen (checkEvidenceSeen), resident
// and spilled.
func TestActiveTableMatchesReference(t *testing.T) {
	cases := 8
	if testing.Short() {
		cases = 3
	}
	var total refModel
	var evidenceChecked [2]int // addresses checked by checkEvidenceSeen: resident, budgeted
	for c := 0; c < cases; c++ {
		seed := uint64(1000 + c)
		r := rand.New(rand.NewPCG(seed, 0xcf9))
		w := newRefWorld(seed)
		cfg := DefaultConfig(seed)
		cfg.ScanWorkers = []int{1, 4}[r.IntN(2)]
		if r.IntN(2) == 0 {
			cfg.FleetWorkers = 2
		}
		cfg.RetainUnresponsive = r.IntN(2) == 0
		cfg.GFWFilterFromDay = w.deployAt
		cfg.APDMaxNewCandidates = []int{1, 2, 4096}[r.IntN(3)]
		cfg.UnresponsiveDays = 10 + r.IntN(30)
		if r.IntN(2) == 0 {
			cfg.TGAFeed = refTGAFeed{w}
		}
		if r.IntN(3) == 0 {
			cfg.CheckpointDir = filepath.Join(t.TempDir(), "ckpt")
			cfg.CheckpointEvery = 1 + r.IntN(3)
		}
		if r.IntN(2) == 0 {
			cfg.MemoryBudget = 1 // every cumulative set spills: deployment walks a spilled everRespAny
		}
		name := fmt.Sprintf("seed=%d/workers=%d/fleet=%d/retain=%v/deploy=%d/apd=%d/tga=%v/ckpt=%v/budget=%d", seed,
			cfg.ScanWorkers, cfg.FleetWorkers, cfg.RetainUnresponsive, cfg.GFWFilterFromDay, cfg.APDMaxNewCandidates,
			cfg.TGAFeed != nil, cfg.CheckpointDir != "", cfg.MemoryBudget)
		t.Run(name, func(t *testing.T) {
			s := NewService(cfg, w.net, w.feeds, w.block)
			defer s.Close()
			m := newRefModel()
			for day := 0; day < 240; day += 1 + r.IntN(9) {
				aliasedBefore := ip6.NewPrefixSet()
				for _, p := range s.aliased.Prefixes() {
					aliasedBefore.Add(p)
				}
				rec, err := s.RunScan(context.Background(), day)
				if err != nil {
					t.Fatalf("day %d: %v", day, err)
				}
				scanned, evicted := m.scan(t, s, w, rec.Index, day, aliasedBefore)
				if rec.ScannedTargets != scanned || rec.Evicted != evicted {
					t.Fatalf("day %d: record scanned %d evicted %d, model %d %d", day, rec.ScannedTargets, rec.Evicted, scanned, evicted)
				}
				checkActive(t, s, m.rows, day)
				checkQueue(t, s, m, day)
				evidenceChecked[min(cfg.MemoryBudget, 1)] += checkEvidenceSeen(t, s, day)
				checkColumns(t, fmt.Sprintf("day %d: prevRespAny", day), &s.prevRespAny, m.respAny)
				for _, p := range s.cfg.Protocols {
					checkColumns(t, fmt.Sprintf("day %d: lastClean[%v]", day, p), &s.lastClean[p], m.resp[p])
				}
				if got, want := [4]int{rec.TotalClean, rec.FirstResp, rec.RespAgain, rec.Unresp},
					[4]int{len(m.respAny), m.firstResp, m.respAgain, m.unresp}; got != want {
					t.Fatalf("day %d: record clean/first/again/unresp %v, model %v", day, got, want)
				}
				total.firstResp += m.firstResp
				total.respAgain += m.respAgain
				total.unresp += m.unresp
			}
			total.evicted += m.evicted
			total.purged += m.purged
			total.dropped += m.dropped
			total.tgaAdmitted += m.tgaAdmitted
		})
	}
	// Every removal and admission path, and every kind of churn, must
	// have been exercised.
	if total.evicted == 0 || total.purged == 0 || total.dropped == 0 || total.tgaAdmitted == 0 {
		t.Errorf("cases left a path idle: evicted %d, purged %d, GFW-dropped %d, TGA-admitted %d",
			total.evicted, total.purged, total.dropped, total.tgaAdmitted)
	}
	if total.firstResp == 0 || total.respAgain == 0 || total.unresp == 0 {
		t.Errorf("cases left churn idle: first %d, again %d, unresponsive %d", total.firstResp, total.respAgain, total.unresp)
	}
	if evidenceChecked[0] == 0 || evidenceChecked[1] == 0 {
		t.Errorf("GFW evidence checked against inputSeen: %d resident, %d budgeted; want both", evidenceChecked[0], evidenceChecked[1])
	}
}

// TestAPDQueueMatchesReference pins the alias-detection queue on a
// hand-built world where two /64s are BGP-level candidates, so the BGP
// level gives them history rows whether or not input reached them: A is
// announced on day 20 and gets input on days 7, 21 and 35; B is
// announced from day 0 and gets input on days 21 and 35; C and D are
// plain /64s. With a round every other scan, the queue after every scan
// equals the reference model's, kept with a table of every /64 queued —
// B is queued on day 21 although the BGP level tested it on day 0, and
// neither is queued again — uninterrupted, and resumed from the
// checkpoint of day 28.
func TestAPDQueueMatchesReference(t *testing.T) {
	a64, b64 := ip6.MustParsePrefix("2001:100:0:a::/64"), ip6.MustParsePrefix("2001:100:0:b::/64")
	c64, d64 := ip6.MustParsePrefix("2001:100:0:c::/64"), ip6.MustParsePrefix("2001:100::/64")
	input := map[int][]ip6.Addr{
		0:  {d64.NthAddr(1)},
		7:  {a64.NthAddr(1)},
		21: {b64.NthAddr(1), a64.NthAddr(2)},
		35: {b64.NthAddr(2), a64.NthAddr(3), c64.NthAddr(1)},
	}
	world := func() (*netmodel.Network, []*sources.Feed) {
		as := &netmodel.AS{ASN: 100, Name: "Cloud", Country: "DE", Category: netmodel.CatCloud,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("2001:100::/32"), a64, b64}, AnnouncedFrom: []int{0, 20, 0}}
		n := netmodel.NewNetwork(1, netmodel.NewASTable([]*netmodel.AS{as}))
		return n, []*sources.Feed{sources.Recurring("in", 0, netmodel.Forever, func(day int) []ip6.Addr { return input[day] })}
	}
	want := [][]ip6.Prefix{nil, {a64}, nil, {b64}, nil, {c64}}
	days := weekly(0, 35)
	const interruptAfter = 5
	for _, resumed := range []bool{false, true} {
		cfg := DefaultConfig(1)
		cfg.APDEveryScans = 2
		cfg.CheckpointDir = filepath.Join(t.TempDir(), "ckpt")
		cfg.CheckpointEvery = 1
		n, feeds := world()
		s := NewService(cfg, n, feeds, ip6.NewPrefixSet())
		if got := len(s.bgp64); got != 2 {
			t.Fatalf("%d BGP-level /64 candidates, want 2", got)
		}
		m := newRefModel()
		for i, day := range days {
			if resumed && i == interruptAfter {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				n2, feeds2 := world()
				var err error
				if s, err = Resume(cfg.CheckpointDir, cfg, n2, feeds2, ip6.NewPrefixSet()); err != nil {
					t.Fatalf("resume: %v", err)
				}
			}
			aliasedBefore := ip6.NewPrefixSet()
			for _, p := range s.aliased.Prefixes() {
				aliasedBefore.Add(p)
			}
			rec, err := s.RunScan(context.Background(), day)
			if err != nil {
				t.Fatalf("day %d: %v", day, err)
			}
			for _, a := range input[day] {
				m.admit(s, aliasedBefore, a, day)
			}
			if rec.Index%s.cfg.APDEveryScans == 0 {
				m.apdRound(aliasedBefore, s.cfg.APDMaxNewCandidates)
			}
			checkQueue(t, s, m, day)
			if !slices.Equal(m.queue, want[i]) {
				t.Fatalf("day %d: model queue %v, want %v", day, m.queue, want[i])
			}
		}
		if !s.detector.Has(a64) || !s.detector.Has(b64) {
			t.Fatal("the BGP-level /64s have no history rows")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// checkColumns compares responder columns with the model's set: every
// shard strictly ascending, holding only its own shard's addresses, all
// of them in the model, and as many as the model holds.
func checkColumns(t *testing.T, label string, cols *respColumns, want map[ip6.Addr]bool) {
	t.Helper()
	n := 0
	for sh, col := range cols {
		for i, a := range col {
			if ip6.ShardOf(a) != sh {
				t.Fatalf("%s: %v in shard %d", label, a, sh)
			}
			if i > 0 && col[i-1].Compare(a) >= 0 {
				t.Fatalf("%s: shard %d not strictly ascending at %v", label, sh, a)
			}
			if !want[a] {
				t.Fatalf("%s: %v responded, not in the model", label, a)
			}
		}
		n += len(col)
	}
	if n != len(want) {
		t.Fatalf("%s: %d responders, model %d", label, n, len(want))
	}
}

// checkActive compares the table with the model.
func checkActive(t *testing.T, s *Service, want map[ip6.Addr]targetState, day int) {
	t.Helper()
	n := 0
	for sh, addrs := range s.active.addrs {
		if len(s.active.state[sh]) != len(addrs) {
			t.Fatalf("day %d: shard %d has %d addresses, %d states", day, sh, len(addrs), len(s.active.state[sh]))
		}
		for i, a := range addrs {
			if ip6.ShardOf(a) != sh {
				t.Fatalf("day %d: %v in shard %d", day, a, sh)
			}
			if i > 0 && addrs[i-1].Compare(a) >= 0 {
				t.Fatalf("day %d: shard %d not strictly ascending at %v", day, sh, a)
			}
			st, ok := want[a]
			if !ok {
				t.Fatalf("day %d: %v active, not in the model", day, a)
			}
			if got := s.active.state[sh][i]; got != st {
				t.Fatalf("day %d: %v state %+v, model %+v", day, a, got, st)
			}
		}
		n += len(addrs)
	}
	if n != len(want) {
		t.Fatalf("day %d: %d active, model %d", day, n, len(want))
	}
}
