package experiments

import (
	"context"
	"fmt"
	"io"

	"hitlist6/internal/analysis"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/worldgen"
)

// Figure1 prints the pipeline funnel (cumulative input through every
// filter down to responsive addresses).
func Figure1(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}
	f := s.Svc.Funnel()
	tb := analysis.NewTable("stage", "addresses", "removed")
	tb.Row("cumulative input", analysis.Humanize(f.Input), "")
	tb.Row("after blocklist filter", analysis.Humanize(f.Input-f.Blocked), "-"+analysis.Humanize(f.Blocked))
	tb.Row("after GFW filter", analysis.Humanize(f.Input-f.Blocked-f.GFWFiltered), "-"+analysis.Humanize(f.GFWFiltered))
	tb.Row("after aliased prefix filter", analysis.Humanize(f.Input-f.Blocked-f.GFWFiltered-f.AliasedInput), "-"+analysis.Humanize(f.AliasedInput))
	tb.Row("after 30-day filter (scanned)", analysis.Humanize(f.ActiveScan), "-"+analysis.Humanize(f.Evicted))
	tb.Row("responsive addresses", analysis.Humanize(f.Responsive), "")
	fmt.Fprintf(w, "Figure 1 — IPv6 Hitlist pipeline funnel (scale %.5f)\n\n%s", s.P.Scale, tb)
	return nil
}

// Figure2 prints the CDFs of input addresses across ASes: complete input,
// non-aliased, GFW-impacted, and responsive.
func Figure2(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}
	type series struct {
		name   string
		counts []analysis.ASCount
	}
	var complete, nonAliased, gfwSeries []analysis.ASCount
	for asn, ai := range s.Svc.PerASInput() {
		name := fmt.Sprintf("AS%d", asn)
		if as := s.World.Net.AS.ByASN(asn); as != nil {
			name = as.Name
		}
		complete = append(complete, analysis.ASCount{ASN: asn, Name: name, Count: ai.Total})
		if na := ai.Total - ai.Aliased; na > 0 {
			nonAliased = append(nonAliased, analysis.ASCount{ASN: asn, Name: name, Count: na})
		}
		if ai.GFW > 0 {
			gfwSeries = append(gfwSeries, analysis.ASCount{ASN: asn, Name: name, Count: ai.GFW})
		}
	}
	sortASCounts(complete)
	sortASCounts(nonAliased)
	sortASCounts(gfwSeries)

	snap, err := s.snapshotFor(netmodel.Day2022)
	if err != nil {
		return err
	}
	responsive := analysis.ByAS(snap.ResponsiveAny, s.World.Net.AS)

	fmt.Fprintf(w, "Figure 2 — input distribution across ASes\n\n")
	for _, sr := range []series{
		{"complete input", complete},
		{"non-aliased", nonAliased},
		{"gfw", gfwSeries},
		{"responsive", responsive},
	} {
		cdf := analysis.RankCDF(sr.counts)
		top := "n/a"
		if len(sr.counts) > 0 {
			top = fmt.Sprintf("%s (%s)", sr.counts[0].Name, analysis.Pct(sr.counts[0].Count, cdf.Total))
		}
		fmt.Fprintf(w, "%-16s total=%-9s ASes=%-6d top=%s\n", sr.name, analysis.Humanize(cdf.Total), len(sr.counts), top)
		fmt.Fprintf(w, "%-16s", "")
		for _, pt := range cdf.SeriesPoints() {
			fmt.Fprintf(w, " top%-5d=%5.1f%%", pt.Rank, 100*pt.Frac)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n80%% of complete input covered by top %d ASes; 50%% of responsive by top %d ASes\n",
		analysis.RankCDF(complete).RanksFor(0.8), analysis.RankCDF(responsive).RanksFor(0.5))
	return nil
}

func sortASCounts(cs []analysis.ASCount) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Count > cs[j-1].Count; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// Figure3 prints the per-scan responsive series, published vs cleaned.
func Figure3(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 3 — responsive addresses over time (published | cleaned)\n\n")
	tb := analysis.NewTable("date", "total", "ICMP", "TCP/80", "TCP/443", "UDP/53", "UDP/443", "total*", "UDP/53*")
	for _, rec := range s.Svc.Records() {
		tb.Row(netmodel.DateString(rec.Day),
			rec.TotalRaw,
			rec.ResponsiveRaw[netmodel.ICMP],
			rec.ResponsiveRaw[netmodel.TCP80],
			rec.ResponsiveRaw[netmodel.TCP443],
			rec.ResponsiveRaw[netmodel.UDP53],
			rec.ResponsiveRaw[netmodel.UDP443],
			rec.TotalClean,
			rec.ResponsiveClean[netmodel.UDP53],
		)
	}
	fmt.Fprint(w, tb)

	// The headline: the DNS spike exists only in the published view.
	peakRaw, peakClean := 0, 0
	for _, rec := range s.Svc.Records() {
		if rec.ResponsiveRaw[netmodel.UDP53] > peakRaw {
			peakRaw = rec.ResponsiveRaw[netmodel.UDP53]
		}
		if rec.ResponsiveClean[netmodel.UDP53] > peakClean {
			peakClean = rec.ResponsiveClean[netmodel.UDP53]
		}
	}
	fmt.Fprintf(w, "\npeak UDP/53 published=%s cleaned=%s (paper: >100 M vs ~148 k)\n",
		analysis.Humanize(peakRaw), analysis.Humanize(peakClean))
	return nil
}

// Figure4 prints the churn series.
func Figure4(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 4 — churn between consecutive scans (cleaned view)\n\n")
	tb := analysis.NewTable("date", "first-resp", "resp-again", "unresp")
	for _, rec := range s.Svc.Records() {
		tb.Row(netmodel.DateString(rec.Day), rec.FirstResp, rec.RespAgain, rec.Unresp)
	}
	fmt.Fprint(w, tb)
	return nil
}

// Figure5 prints the aliased-prefix length CDF per year (2022 excluding
// Trafficforce, as in the paper's plot).
func Figure5(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 5 — aliased prefix length distribution per year\n\n")
	tb := analysis.NewTable("year", "prefixes", "/32-", "/48", "/64", "longer", "share /64")
	years := []struct {
		label string
		day   int
	}{
		{"2018", netmodel.Day2018}, {"2019", netmodel.Day2019}, {"2020", netmodel.Day2020},
		{"2021", netmodel.Day2021},
	}
	rowFor := func(label string, prefixes []ip6.Prefix) {
		var le32, p48, p64, longer int
		for _, p := range prefixes {
			switch {
			case p.Bits() <= 32:
				le32++
			case p.Bits() <= 48:
				p48++
			case p.Bits() <= 64:
				p64++
			default:
				longer++
			}
		}
		cdf := analysis.PrefixLenCDF(prefixes)
		share := "n/a"
		if len(prefixes) > 0 {
			share = fmt.Sprintf("%.1f %%", 100*(cdf[64]-cdf[63]))
		}
		tb.Row(label, len(prefixes), le32, p48, p64, longer, share)
	}
	for _, y := range years {
		snap, err := s.snapshotFor(y.day)
		if err != nil {
			return err
		}
		rowFor(y.label, snap.Aliased)
	}
	rowFor("2022 (excl TF)", s.aliasedExclTrafficforce())
	rowFor("2022 (all)", s.Svc.AliasedPrefixes().Prefixes())
	fmt.Fprint(w, tb)
	fmt.Fprintf(w, "\npaper: >90 %% of aliased prefixes are /64; Trafficforce adds 66.4 k /64s in Feb 2022\n")
	return nil
}

// Figure6 prints, per AS with aliased space, the total aliased address
// volume (as a power of two) and its share of the announced space.
func Figure6(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}
	type asAgg struct {
		aliased   float64 // addresses (may exceed float precision: fine for log2 buckets)
		announced float64
	}
	agg := make(map[int]*asAgg)
	for _, p := range s.Svc.AliasedPrefixes().Prefixes() {
		as := s.World.Net.AS.Lookup(p.Addr())
		if as == nil {
			continue
		}
		a := agg[as.ASN]
		if a == nil {
			a = &asAgg{}
			agg[as.ASN] = a
			for _, ap := range as.Announced {
				a.announced += pow2(ap.NumAddressesLog2())
			}
		}
		a.aliased += pow2(p.NumAddressesLog2())
	}
	fmt.Fprintf(w, "Figure 6 — aliased address space per AS vs announced space\n\n")
	tb := analysis.NewTable("AS", "log2(aliased)", "share of announced")
	var asns []int
	for asn := range agg {
		asns = append(asns, asn)
	}
	sortInts(asns)
	full, over50, over90 := 0, 0, 0
	for _, asn := range asns {
		a := agg[asn]
		share := a.aliased / a.announced
		if share > 0.5 {
			over50++
		}
		if share > 0.9 {
			over90++
		}
		if share > 0.99 {
			full++
		}
		name := fmt.Sprintf("AS%d", asn)
		if as := s.World.Net.AS.ByASN(asn); as != nil {
			name = as.Name
		}
		tb.Row(name, fmt.Sprintf("%.0f", log2(a.aliased)), fmt.Sprintf("%.2f %%", 100*share))
	}
	fmt.Fprint(w, tb)
	fmt.Fprintf(w, "\nASes with aliased space: %d; >50 %% aliased: %d; >90 %%: %d; ~100 %%: %d (paper: 80 / 61)\n",
		len(agg), over50, over90, full)
	return nil
}

func pow2(n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= 2
	}
	return out
}

func log2(x float64) float64 {
	n := 0.0
	for x >= 2 {
		x /= 2
		n++
	}
	return n
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Figure7 prints the overlap matrix between new-source responsive sets.
func Figure7(ctx context.Context, s *Suite, w io.Writer) error {
	res, err := s.NewSources(ctx)
	if err != nil {
		return err
	}
	names := make([]string, len(res.Sources))
	sets := make([]*ip6.SortedShardSet, len(res.Sources))
	for i, src := range res.Sources {
		names[i] = src.Name
		sets[i] = src.Any
	}
	m := analysis.Overlap(names, sets)
	fmt.Fprintf(w, "Figure 7 — overlap between responsive addresses from new sources (%% of row)\n\n")
	printMatrix(w, names, m)
	return nil
}

// Figure8 prints AS-distribution CDFs for each new source.
func Figure8(ctx context.Context, s *Suite, w io.Writer) error {
	res, err := s.NewSources(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 8 — AS distribution of responsive addresses per new source\n\n")
	for _, src := range res.Sources {
		counts := analysis.ByAS(src.Any, s.World.Net.AS)
		cdf := analysis.RankCDF(counts)
		top := "n/a"
		if len(counts) > 0 {
			top = fmt.Sprintf("%s %.1f%%", counts[0].Name, 100*cdf.At(1))
		}
		fmt.Fprintf(w, "%-14s responsive=%-8s ASes=%-5d top=%-24s top10=%5.1f%%\n",
			src.Name, analysis.Humanize(src.Any.Len()), len(counts), top, 100*cdf.At(10))
	}
	return nil
}

// Figure9 prints AS-distribution CDFs per protocol for the final hitlist.
func Figure9(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}
	snap, err := s.snapshotFor(netmodel.Day2022)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 9 — AS distribution of responsive addresses per protocol (%s)\n\n",
		worldgen.DateLabel(netmodel.Day2022))
	for _, p := range netmodel.Protocols {
		counts := analysis.ByAS(snap.Responsive[p], s.World.Net.AS)
		cdf := analysis.RankCDF(counts)
		fmt.Fprintf(w, "%-8s addrs=%-8s ASes=%-5d top1=%5.1f%% top10=%5.1f%% top100=%5.1f%%\n",
			p, analysis.Humanize(cdf.Total), len(counts), 100*cdf.At(1), 100*cdf.At(10), 100*cdf.At(100))
	}
	return nil
}

// Figure10 prints the protocol overlap matrix of the final hitlist.
func Figure10(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}
	snap, err := s.snapshotFor(netmodel.Day2022)
	if err != nil {
		return err
	}
	names := make([]string, 0, netmodel.NumProtocols)
	sets := make([]*ip6.SortedShardSet, 0, netmodel.NumProtocols)
	for _, p := range netmodel.Protocols {
		names = append(names, p.String())
		sets = append(sets, snap.Responsive[p])
	}
	m := analysis.Overlap(names, sets)
	fmt.Fprintf(w, "Figure 10 — protocol overlap (%% of row protocol's addresses)\n\n")
	printMatrix(w, names, m)
	fmt.Fprintf(w, "\npaper: TCP/UDP responders are almost all ICMP-responsive (>91 %%)\n")
	return nil
}

func printMatrix(w io.Writer, names []string, m [][]float64) {
	fmt.Fprintf(w, "%-14s", "")
	for _, n := range names {
		fmt.Fprintf(w, "%10s", n)
	}
	fmt.Fprintln(w)
	for i, row := range m {
		fmt.Fprintf(w, "%-14s", names[i])
		for j, v := range row {
			if i == j {
				fmt.Fprintf(w, "%10s", "-")
			} else {
				fmt.Fprintf(w, "%10.2f", v)
			}
		}
		fmt.Fprintln(w)
	}
}
