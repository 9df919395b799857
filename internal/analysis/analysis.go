// Package analysis provides the statistical reductions the evaluation
// figures and tables are built from: per-AS aggregation, rank CDFs
// (Figures 2, 8, 9), overlap matrices (Figures 7, 10), prefix-length CDFs
// (Figure 5), and text rendering helpers for the experiment harness.
package analysis

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
)

// ASCount is one AS with an address count.
type ASCount struct {
	ASN   int
	Name  string
	Count int
}

// ByAS aggregates an address set per origin AS. Unrouted addresses land
// under ASN 0.
//
// Longest-prefix lookups dominate on large sets, so they are memoized
// per prefix: two addresses sharing their first K bits — K being the
// table's longest announced prefix length, floored at /48 — always
// resolve to the same origin (or both to none), so each K-prefix is
// looked up once. This is exact, not an aggregation shortcut; tables
// announcing prefixes longer than /64 fall back to per-address lookups.
func ByAS(set ip6.Set, table *netmodel.ASTable) []ASCount {
	type asAgg struct {
		name  string
		count int
	}
	counts := make(map[int]*asAgg)
	memoBits := table.MaxAnnouncedBits()
	if memoBits < 48 {
		memoBits = 48
	}
	var memo map[ip6.Addr]int // masked K-prefix address → ASN (0 = unrouted)
	names := map[int]string{0: "unrouted"}
	if memoBits <= 64 {
		memo = make(map[ip6.Addr]int)
	}
	for a := range set {
		asn := 0
		if memo != nil {
			key := ip6.PrefixFrom(a, memoBits).Addr()
			cached, ok := memo[key]
			if !ok {
				if as := table.Lookup(a); as != nil {
					cached = as.ASN
					names[as.ASN] = as.Name
				}
				memo[key] = cached
			}
			asn = cached
		} else if as := table.Lookup(a); as != nil {
			asn = as.ASN
			names[as.ASN] = as.Name
		}
		c := counts[asn]
		if c == nil {
			c = &asAgg{name: names[asn]}
			counts[asn] = c
		}
		c.count++
	}
	out := make([]ASCount, 0, len(counts))
	for asn, c := range counts {
		out = append(out, ASCount{ASN: asn, Name: c.name, Count: c.count})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}

// CDF is a cumulative distribution over ranked counts: Y[i] is the
// cumulative fraction covered by the top i+1 ranks.
type CDF struct {
	Total int
	Y     []float64
}

// RankCDF builds the AS-rank CDF (the paper's log-x CDF plots).
func RankCDF(counts []ASCount) CDF {
	total := 0
	for _, c := range counts {
		total += c.Count
	}
	cdf := CDF{Total: total, Y: make([]float64, len(counts))}
	acc := 0
	for i, c := range counts {
		acc += c.Count
		cdf.Y[i] = float64(acc) / float64(total)
	}
	return cdf
}

// At returns the cumulative fraction covered by the top-k ranks.
func (c CDF) At(k int) float64 {
	if len(c.Y) == 0 || k <= 0 {
		return 0
	}
	if k > len(c.Y) {
		k = len(c.Y)
	}
	return c.Y[k-1]
}

// RanksFor returns the number of top ranks needed to cover fraction f.
func (c CDF) RanksFor(f float64) int {
	for i, y := range c.Y {
		if y >= f {
			return i + 1
		}
	}
	return len(c.Y)
}

// SeriesPoints renders a CDF at log-spaced ranks (1, 2, 5, 10, …),
// matching the log x-axis of the paper's plots.
func (c CDF) SeriesPoints() []struct {
	Rank int
	Frac float64
} {
	var out []struct {
		Rank int
		Frac float64
	}
	for _, r := range []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000} {
		if r > len(c.Y) {
			break
		}
		out = append(out, struct {
			Rank int
			Frac float64
		}{r, c.At(r)})
	}
	if n := len(c.Y); n > 0 {
		out = append(out, struct {
			Rank int
			Frac float64
		}{n, 1.0})
	}
	return out
}

// Overlap computes the row-normalized overlap matrix of Figures 7 and 10:
// cell [i][j] = |set_i ∩ set_j| / |set_i| × 100.
func Overlap(names []string, sets []ip6.Set) [][]float64 {
	n := len(sets)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			if i == j || sets[i].Len() == 0 {
				continue
			}
			out[i][j] = 100 * float64(sets[i].IntersectCount(sets[j])) / float64(sets[i].Len())
		}
	}
	return out
}

// OverlapSorted is Overlap over frozen sorted shard sets: every cell is a
// pair of per-shard merge walks instead of hashing one set against
// another, and no flat set copies are ever materialized. Intersections
// are symmetric, so each pair is walked once and normalized per row.
func OverlapSorted(names []string, sets []*ip6.SortedShardSet) [][]float64 {
	n := len(sets)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			common := sets[i].IntersectCount(sets[j])
			if sets[i].Len() > 0 {
				out[i][j] = 100 * float64(common) / float64(sets[i].Len())
			}
			if sets[j].Len() > 0 {
				out[j][i] = 100 * float64(common) / float64(sets[j].Len())
			}
		}
	}
	return out
}

// PrefixLenCDF computes the distribution of prefix lengths (Figure 5) as
// cumulative fractions per length 0..128.
func PrefixLenCDF(prefixes []ip6.Prefix) []float64 {
	out := make([]float64, 129)
	if len(prefixes) == 0 {
		return out
	}
	for _, p := range prefixes {
		out[p.Bits()]++
	}
	acc := 0.0
	for i := range out {
		acc += out[i]
		out[i] = acc / float64(len(prefixes))
	}
	return out
}

// Humanize renders a count the way the paper does: 1.8 M, 550.6 k, 31.
func Humanize(n int) string {
	switch {
	case n >= 1_000_000_000:
		return trimZero(fmt.Sprintf("%.1f G", float64(n)/1e9))
	case n >= 1_000_000:
		return trimZero(fmt.Sprintf("%.1f M", float64(n)/1e6))
	case n >= 1_000:
		return trimZero(fmt.Sprintf("%.1f k", float64(n)/1e3))
	}
	return fmt.Sprintf("%d", n)
}

func trimZero(s string) string {
	return strings.Replace(s, ".0 ", " ", 1)
}

// Pct formats a fraction as a percentage.
func Pct(num, den int) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f %%", 100*float64(num)/float64(den))
}

// Table renders aligned text tables for the harness output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with a header row.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are stringified with %v.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// EUI64Stats summarizes the EUI-64 composition of an address set
// (Section 4.1's input-bias analysis).
type EUI64Stats struct {
	Total        int
	EUI64        int
	DistinctMACs int
	// TopMACAddrs is how many addresses the most frequent MAC appears in.
	TopMACAddrs int
	// SingleUseMACs counts MACs seen in exactly one address.
	SingleUseMACs int
	// TopOUI is the OUI of the most frequent MAC; of MACs tied at the
	// top count, the smallest in byte order.
	TopOUI [3]byte
}

// EUI64Analysis computes EUI-64 statistics over a set.
func EUI64Analysis(set ip6.Set) EUI64Stats {
	st := EUI64Stats{Total: set.Len()}
	macCount := make(map[ip6.MAC]int)
	for a := range set {
		if mac, ok := a.EUI64MAC(); ok {
			st.EUI64++
			macCount[mac]++
		}
	}
	st.DistinctMACs = len(macCount)
	var topMAC ip6.MAC
	for mac, c := range macCount {
		if c > st.TopMACAddrs || (c == st.TopMACAddrs && bytes.Compare(mac[:], topMAC[:]) < 0) {
			st.TopMACAddrs = c
			topMAC = mac
		}
		if c == 1 {
			st.SingleUseMACs++
		}
	}
	st.TopOUI = topMAC.OUI()
	return st
}
