package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"hitlist6/internal/analysis"
	"hitlist6/internal/gfw"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
	"hitlist6/internal/tga"
	"hitlist6/internal/tga/dc"
	"hitlist6/internal/tga/sixgan"
	"hitlist6/internal/tga/sixgraph"
	"hitlist6/internal/tga/sixtree"
	"hitlist6/internal/tga/sixveclm"
	"hitlist6/internal/worldgen"
)

// Table1 prints responsive addresses and covered ASes per protocol per
// snapshot year, plus the cumulative row.
func Table1(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 1 — responsive addresses and ASes over four years (cleaned)\n\n")
	tb := analysis.NewTable("snapshot", "ICMP", "ASes", "TCP/443", "ASes", "TCP/80", "ASes", "UDP/443", "ASes", "UDP/53", "ASes", "Total", "ASes")
	days := []int{netmodel.Day2018, netmodel.Day2019, netmodel.Day2020, netmodel.Day2021, netmodel.Day2022}
	for _, day := range days {
		snap, err := s.snapshotFor(day)
		if err != nil {
			return err
		}
		row := []interface{}{netmodel.DateString(day)}
		for _, p := range []netmodel.Protocol{netmodel.ICMP, netmodel.TCP443, netmodel.TCP80, netmodel.UDP443, netmodel.UDP53} {
			set := snap.Responsive[p]
			row = append(row, analysis.Humanize(set.Len()), len(analysis.ByAS(set, s.World.Net.AS)))
		}
		row = append(row, analysis.Humanize(snap.ResponsiveAny.Len()),
			len(analysis.ByAS(snap.ResponsiveAny, s.World.Net.AS)))
		tb.Row(row...)
	}
	// Cumulative.
	row := []interface{}{"Cumulative"}
	for _, p := range []netmodel.Protocol{netmodel.ICMP, netmodel.TCP443, netmodel.TCP80, netmodel.UDP443, netmodel.UDP53} {
		row = append(row, analysis.Humanize(s.Svc.EverResponsiveLen(p)), "")
	}
	row = append(row, analysis.Humanize(s.Svc.EverResponsiveAnyLen()), "")
	tb.Row(row...)
	fmt.Fprint(w, tb)
	return nil
}

// Table2 probes one random address per aliased prefix (Trafficforce
// excluded) on every protocol.
func Table2(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}
	prefixes := s.aliasedExclTrafficforce()
	day := worldgen.EndDay
	r := rng.NewStream(s.P.Seed, "table2")
	targets := make([]ip6.Addr, len(prefixes))
	for i, p := range prefixes {
		targets[i] = p.RandomAddr(r)
	}
	sets, _, err := s.Svc.Scanner().StreamResponsiveFrom(ctx, scan.SliceSource(targets), allProtocols(), day)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 2 — responsiveness of aliased prefixes (one random address each, %d prefixes)\n\n", len(prefixes))
	tb := analysis.NewTable("protocol", "prefixes", "ASes")
	for _, p := range allProtocols() {
		respPrefixes := ip6.NewSet(0)
		ases := map[int]bool{}
		for i, t := range targets {
			if sets[p].Has(t) {
				respPrefixes.Add(prefixes[i].Addr())
				if as := s.World.Net.AS.Lookup(t); as != nil {
					ases[as.ASN] = true
				}
			}
		}
		tb.Row(p.String(), respPrefixes.Len(), len(ases))
	}
	fmt.Fprint(w, tb)
	fmt.Fprintf(w, "\npaper: ICMP 39.0 k / TCP 32 k / UDP-443 28.8 k / UDP-53 172 of 42.8 k prefixes\n")
	return nil
}

func allProtocols() []netmodel.Protocol {
	return []netmodel.Protocol{netmodel.ICMP, netmodel.TCP443, netmodel.TCP80, netmodel.UDP443, netmodel.UDP53}
}

// SourceEval is one evaluated candidate source.
type SourceEval struct {
	Name string
	// Candidates is the raw candidate volume; New excludes addresses the
	// service already knew; NonAliased excludes aliased/blocked ones.
	Candidates int
	New        int
	NonAliased int
	// CandidateASes counts ASes covered by the candidates.
	CandidateASes int
	// Responsive per protocol plus the union.
	Responsive map[netmodel.Protocol]*ip6.SortedShardSet
	Any        *ip6.SortedShardSet
	// GFWFiltered counts injection-classified DNS results removed.
	GFWFiltered int
}

// NewSourcesResult aggregates the Section 6 evaluation.
type NewSourcesResult struct {
	Sources []SourceEval
	// Union of all new-source responsive addresses.
	UnionAny *ip6.SortedShardSet
	// Hitlist is the final service snapshot for comparison.
	Hitlist *core2
}

type core2 struct {
	Responsive map[netmodel.Protocol]*ip6.SortedShardSet
	Any        *ip6.SortedShardSet
}

// NewSources runs the Section 6 evaluation once per suite: generate
// candidates from each source, filter, scan them twice across two weeks,
// aggregate, and remove GFW-injected responses.
func (s *Suite) NewSources(ctx context.Context) (*NewSourcesResult, error) {
	if err := s.Run(ctx); err != nil {
		return nil, err
	}
	s.nsOnce.Do(func() { s.nsRes, s.nsErr = s.newSources(ctx) })
	return s.nsRes, s.nsErr
}

func (s *Suite) newSources(ctx context.Context) (*NewSourcesResult, error) {
	snap, err := s.snapshotFor(s.SnapDec2021)
	if err != nil {
		return nil, err
	}
	sc := func(x float64) int {
		n := int(x * s.P.Scale)
		if n < 1 {
			n = 1
		}
		return n
	}

	type rawSource struct {
		name   string
		addrs  []ip6.Addr
		rescan bool // scanned only once (the unresponsive pool)
	}
	var raws []rawSource

	// Passive sources: NS/MX infrastructure, CAIDA Ark, DET.
	passive := s.World.PassiveNSMX.Clone()
	passive.AddSlice(s.World.ArkAddrs)
	passive.AddSlice(s.World.DETAddrs)
	raws = append(raws, rawSource{name: "Passive", addrs: passive.Sorted()})

	// The 30-day-unresponsive pool, cleaned from GFW-injection addresses —
	// filtered in one pass against the tracker's sharded evidence instead
	// of materializing the merged injection set and a diff copy.
	unresp, err := s.Svc.UnresponsivePool().View()
	if err != nil {
		return nil, err
	}
	tracker := s.Svc.Tracker()
	pool := make([]ip6.Addr, 0, unresp.Len())
	unresp.Walk(func(a ip6.Addr) bool {
		if !tracker.InjectedSeenHas(a) {
			pool = append(pool, a)
		}
		return true
	})
	ip6.SortAddrs(pool)
	raws = append(raws, rawSource{name: "Unresponsive", addrs: pool, rescan: true})

	// Target generation on the December 2021 responsive seeds.
	gens := []struct {
		g      tga.ViewStreamer
		budget int
	}{
		{sixgraph.New(sixgraph.DefaultConfig()), sc(125.8e6)},
		{sixtree.New(sixtree.DefaultConfig()), sc(37.6e6)},
		{sixgan.New(sixgan.DefaultConfig()), sc(3.3e6)},
		{sixveclm.New(sixveclm.DefaultConfig()), sc(70.3e3)},
		{dc.New(dc.DefaultConfig()), sc(5.3e6)},
	}
	view := snap.ResponsiveAny
	for _, g := range gens {
		var addrs []ip6.Addr
		g.g.EmitView(view, g.budget, func(a ip6.Addr) bool {
			addrs = append(addrs, a)
			return true
		})
		raws = append(raws, rawSource{name: g.g.Name(), addrs: addrs})
	}

	res := &NewSourcesResult{UnionAny: ip6.SortedOf()}
	scanner := s.Svc.Scanner()
	aliased := s.Svc.AliasedPrefixes()

	for _, raw := range raws {
		ev := SourceEval{
			Name:       raw.name,
			Candidates: len(raw.addrs),
			Responsive: make(map[netmodel.Protocol]*ip6.SortedShardSet, netmodel.NumProtocols),
		}
		candASes := map[int]bool{}
		var targets []ip6.Addr
		for _, a := range raw.addrs {
			if !a.IsGlobalUnicast() {
				continue
			}
			if as := s.World.Net.AS.Lookup(a); as != nil {
				candASes[as.ASN] = true
			}
			if raw.name != "Unresponsive" {
				if s.Svc.InputSeenHas(a) {
					continue
				}
				ev.New++
			} else {
				ev.New++
			}
			if aliased.Contains(a) || s.World.Blocklist.Contains(a) {
				continue
			}
			ev.NonAliased++
			targets = append(targets, a)
		}
		ev.CandidateASes = len(candASes)

		// Scan; aggregate two rounds a week apart (the pool only once).
		// Results stream straight into per-shard columns, which only the
		// batch's shard writes, sorted and deduplicated at the end.
		days := []int{worldgen.EndDay, worldgen.EndDay + 7}
		if raw.rescan {
			days = days[:1]
		}
		var respCols [netmodel.NumProtocols][ip6.AddrShards][]ip6.Addr
		var anyCols [ip6.AddrShards][]ip6.Addr
		var filtered [ip6.AddrShards]int
		for _, day := range days {
			_, err := scanner.StreamFrom(ctx, scan.SliceSource(targets), allProtocols(), day, func(b *scan.Batch) error {
				for i := range b.Results {
					r := &b.Results[i]
					if !r.Success {
						continue
					}
					if r.Proto == netmodel.UDP53 && gfw.ClassifyMessages(r.DNS).Injected() {
						filtered[b.Shard]++
						continue
					}
					respCols[r.Proto][b.Shard] = append(respCols[r.Proto][b.Shard], r.Target)
					anyCols[b.Shard] = append(anyCols[b.Shard], r.Target)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("scanning source %s: %w", raw.name, err)
			}
		}
		for _, c := range filtered {
			ev.GFWFiltered += c
		}
		for _, p := range allProtocols() {
			ev.Responsive[p] = ip6.SortShards(respCols[p])
		}
		ev.Any = ip6.SortShards(anyCols)
		res.UnionAny = res.UnionAny.Union(ev.Any)
		res.Sources = append(res.Sources, ev)
	}

	// Sort by responsive volume, as Table 4 does.
	sort.SliceStable(res.Sources, func(i, j int) bool {
		return res.Sources[i].Any.Len() > res.Sources[j].Any.Len()
	})

	finalSnap, err := s.snapshotFor(netmodel.Day2022)
	if err != nil {
		return nil, err
	}
	res.Hitlist = &core2{Responsive: finalSnap.Responsive, Any: finalSnap.ResponsiveAny}
	return res, nil
}

// Table3 prints the new candidate sources with AS coverage.
func Table3(ctx context.Context, s *Suite, w io.Writer) error {
	res, err := s.NewSources(ctx)
	if err != nil {
		return err
	}
	total := s.World.Net.AS.NumASes()
	fmt.Fprintf(w, "Table 3 — new input sources (announcing ASes: %d)\n\n", total)
	tb := analysis.NewTable("source", "candidates", "new", "non-aliased", "ASes", "% of ASes")
	for _, src := range res.Sources {
		tb.Row(src.Name, analysis.Humanize(src.Candidates), analysis.Humanize(src.New),
			analysis.Humanize(src.NonAliased), src.CandidateASes, analysis.Pct(src.CandidateASes, total))
	}
	fmt.Fprint(w, tb)
	return nil
}

// Table4 prints responsive addresses per source and protocol, with the
// top-AS bias, the current hitlist, and the combined total.
func Table4(ctx context.Context, s *Suite, w io.Writer) error {
	res, err := s.NewSources(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 4 — responsive addresses for new sources by protocol\n\n")
	tb := analysis.NewTable("source", "ICMP", "TCP/443", "TCP/80", "UDP/443", "UDP/53", "Total", "Top-1 AS", "Top-2 AS", "ASes")

	row := func(name string, perProto map[netmodel.Protocol]*ip6.SortedShardSet, any *ip6.SortedShardSet) {
		counts := analysis.ByAS(any, s.World.Net.AS)
		top1, top2 := "-", "-"
		if len(counts) > 0 {
			top1 = fmt.Sprintf("%s %s", counts[0].Name, analysis.Pct(counts[0].Count, any.Len()))
		}
		if len(counts) > 1 {
			top2 = fmt.Sprintf("%s %s", counts[1].Name, analysis.Pct(counts[1].Count, any.Len()))
		}
		tb.Row(name,
			analysis.Humanize(perProto[netmodel.ICMP].Len()),
			analysis.Humanize(perProto[netmodel.TCP443].Len()),
			analysis.Humanize(perProto[netmodel.TCP80].Len()),
			analysis.Humanize(perProto[netmodel.UDP443].Len()),
			analysis.Humanize(perProto[netmodel.UDP53].Len()),
			analysis.Humanize(any.Len()), top1, top2, len(counts))
	}

	unionProto := make(map[netmodel.Protocol]*ip6.SortedShardSet)
	for _, src := range res.Sources {
		row(src.Name, src.Responsive, src.Any)
		for _, p := range allProtocols() {
			unionProto[p] = unionProto[p].Union(src.Responsive[p])
		}
	}
	row("New Sources", unionProto, res.UnionAny)
	row("IPv6 Hitlist", res.Hitlist.Responsive, res.Hitlist.Any)
	totalProto := make(map[netmodel.Protocol]*ip6.SortedShardSet)
	for _, p := range allProtocols() {
		totalProto[p] = unionProto[p].Union(res.Hitlist.Responsive[p])
	}
	row("Total", totalProto, res.UnionAny.Union(res.Hitlist.Any))
	fmt.Fprint(w, tb)

	gain := 0.0
	if res.Hitlist.Any.Len() > 0 {
		fresh := res.UnionAny.Len() - res.UnionAny.IntersectCount(res.Hitlist.Any)
		gain = 100 * float64(fresh) / float64(res.Hitlist.Any.Len())
	}
	fmt.Fprintf(w, "\nnew responsive addresses: +%.0f %% over the hitlist (paper: +174 %%)\n", gain)
	return nil
}

// Table5 prints the top ASes of GFW-impacted addresses.
func Table5(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}
	impacted, err := s.Svc.InjectedOnly()
	if err != nil {
		return err
	}
	counts := analysis.ByAS(impacted, s.World.Net.AS)
	fmt.Fprintf(w, "Table 5 — top 10 ASes impacted by the GFW (total %s addresses)\n\n",
		analysis.Humanize(impacted.Len()))
	tb := analysis.NewTable("AS", "addresses", "%", "CDF")
	cum := 0
	for i, c := range counts {
		if i >= 10 {
			break
		}
		cum += c.Count
		tb.Row(fmt.Sprintf("AS%d (%s)", c.ASN, c.Name), analysis.Humanize(c.Count),
			analysis.Pct(c.Count, impacted.Len()), analysis.Pct(cum, impacted.Len()))
	}
	fmt.Fprint(w, tb)
	fmt.Fprintf(w, "\npaper: AS4134 46.4 %%, AS4812 14.6 %%, top-10 CDF 93.9 %%\n")
	return nil
}
