// Package worldgen builds the "paper world": a deterministic synthetic
// Internet whose statistical shapes match what Zirngibl et al. measured —
// named ASes (Amazon, Fastly, Cloudflare, Akamai, Trafficforce, EpicUp,
// Free SAS, the Chinese ASes of Table 5, …), host-population cohorts that
// trace the Table 1 growth curve, CDN aliased prefixes with backend
// fleets, dense low-IID regions for target generation, rotating-CPE input
// bias, the three GFW injection eras, and the input feeds that drive the
// hitlist service.
//
// Everything scales with Params.Scale: magnitudes are paper counts times
// the scale factor, so tests run tiny worlds while cmd/experiments runs
// the full reproduction.
package worldgen

import (
	"fmt"

	"hitlist6/internal/dnsdb"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
)

// Params configures world generation.
type Params struct {
	// Seed drives all world randomness.
	Seed uint64
	// Scale multiplies paper magnitudes (1.0 = full Internet; the
	// timeline experiments use 1/500, snapshot experiments 1/200).
	Scale float64
	// TailASes is the number of synthetic background ASes.
	TailASes int
	// ScanIntervalDays is the service cadence for the generated
	// schedule; the later "slow" period stretches it by half.
	ScanIntervalDays int
}

// TimelineParams is the default configuration for the 4-year service run.
func TimelineParams(seed uint64) Params {
	return Params{Seed: seed, Scale: 1.0 / 500, TailASes: 240, ScanIntervalDays: 7}
}

// TestParams is a miniature world for unit tests.
func TestParams(seed uint64) Params {
	return Params{Seed: seed, Scale: 1.0 / 20000, TailASes: 24, ScanIntervalDays: 7}
}

// count scales a paper magnitude.
func (p Params) count(paper float64) int {
	n := int(paper * p.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

// Named ASNs used throughout the experiments.
const (
	ASNAmazon        = 16509
	ASNFastly        = 54113
	ASNCloudflare    = 13335
	ASNCloudflareLon = 209242
	ASNAkamai        = 20940
	ASNAkamaiIntl    = 33905
	ASNGoogle        = 15169
	ASNLinode        = 63949
	ASNDigitalOcean  = 14061
	ASNFreeSAS       = 12322
	ASNDTAG          = 3320
	ASNANTEL         = 6057
	ASNVNPT          = 45899
	ASNTrafficforce  = 212144
	ASNEpicUp        = 397165
	ASNMisaka        = 50069
	ASNChinaMobile   = 9808
	ASNRacktech      = 208861
	ASNCERN          = 513
	ASNARNES         = 2107
	ASNHomePL        = 12824
	ASNGlasfaser     = 60294
	ASNLevel3        = 3356
	ASNNTT           = 2914
	ASNTelia         = 1299
)

// CNShares mirrors Table 5: the Chinese ASes impacted by the GFW and
// their share of impacted addresses.
var CNShares = []struct {
	ASN   int
	Share float64
}{
	{4134, 0.4644}, {4812, 0.1459}, {134774, 0.1388}, {134773, 0.0804},
	{140329, 0.0237}, {134772, 0.0193}, {4837, 0.0187}, {136200, 0.0176},
	{140330, 0.0172}, {140316, 0.0124},
	// The long tail of the 695 affected ASes, collapsed to a handful.
	{139018, 0.02}, {139019, 0.015}, {139020, 0.012}, {139021, 0.008},
	{ASNChinaMobile, 0.0086},
}

// TrafficforceDay is when AS212144 starts announcing its aliased /64s.
var TrafficforceDay = netmodel.DayOf(2022, 2, 1)

// GFWFilterDeployDay is when the paper deployed the GFW filter.
var GFWFilterDeployDay = netmodel.DayOf(2022, 2, 7)

// EndDay is the end of the evaluated period.
var EndDay = netmodel.Day2022

// World is a generated world plus everything experiments need.
type World struct {
	Params Params
	Net    *netmodel.Network

	// Blocklist holds operator opt-outs.
	Blocklist *ip6.PrefixSet

	// ScanDays is the service schedule from 2018-07-01 to 2022-04-07.
	ScanDays []int

	// Feeds are wired by BuildFeeds (requires a yarrp tracer, so it is
	// separate from Generate).
	transientByWeek map[int][]ip6.Addr
	webHosts        []hostRef
	dnsHosts        []hostRef
	icmpHosts       []hostRef
	rdnsAddrs       []ip6.Addr
	cnSpace         []cnRegion

	// New-source material for the Section 6 experiments.
	PassiveNSMX ip6.Set
	ArkAddrs    []ip6.Addr
	DETAddrs    []ip6.Addr

	// Registry is the synthetic DNS view.
	Registry *dnsdb.Registry

	// denseCounter sequences dense-block placement per AS.
	denseCounter map[int]int
}

type cnRegion struct {
	asn    int
	prefix ip6.Prefix
	weight float64
}

// hostRef ties a host address to its birth day so feeds only reveal live
// hosts.
type hostRef struct {
	Addr ip6.Addr
	Born int
}

// asSpec declares one named AS.
type asSpec struct {
	asn      int
	name     string
	cc       string
	cat      netmodel.Category
	prefixes []string
	rotation int
}

var namedASes = []asSpec{
	{ASNLevel3, "Level3", "US", netmodel.CatTransit, []string{"2001:1900::/24"}, 0},
	{ASNNTT, "NTT", "US", netmodel.CatTransit, []string{"2001:4000::/24"}, 0},
	{ASNTelia, "Telia", "SE", netmodel.CatTransit, []string{"2001:2000::/24"}, 0},
	{ASNAmazon, "Amazon", "US", netmodel.CatCloud, []string{"2600:9000::/28", "2a05:d000::/28"}, 0},
	{ASNFastly, "Fastly", "US", netmodel.CatCDN, []string{"2a04:4e40::/32"}, 0},
	{ASNCloudflare, "Cloudflare", "US", netmodel.CatCDN, []string{"2606:4700::/32", "2a06:98c0::/29"}, 0},
	{ASNCloudflareLon, "Cloudflare-London", "GB", netmodel.CatCDN, []string{"2a09:bac0::/32"}, 0},
	{ASNAkamai, "Akamai", "US", netmodel.CatCDN, []string{"2a02:26f0::/32"}, 0},
	{ASNAkamaiIntl, "Akamai-Intl", "NL", netmodel.CatCDN, []string{"2600:1480::/32"}, 0},
	{ASNGoogle, "Google", "US", netmodel.CatCloud, []string{"2607:f8b0::/32"}, 0},
	{ASNLinode, "Linode", "US", netmodel.CatCloud, []string{"2600:3c00::/27"}, 0},
	{ASNDigitalOcean, "DigitalOcean", "US", netmodel.CatCloud, []string{"2604:a880::/32"}, 0},
	{ASNFreeSAS, "Free SAS", "FR", netmodel.CatISP, []string{"2a01:e00::/26"}, 0},
	{ASNDTAG, "DTAG", "DE", netmodel.CatISP, []string{"2003::/19"}, 30},
	{ASNANTEL, "ANTEL", "UY", netmodel.CatISP, []string{"2800:a000::/24"}, 21},
	{ASNVNPT, "VNPT", "VN", netmodel.CatISP, []string{"2405:4800::/32"}, 45},
	{ASNMisaka, "Misaka", "US", netmodel.CatDNSProvider, []string{"2a0d:2140::/29"}, 0},
	{ASNCERN, "CERN", "CH", netmodel.CatEducation, []string{"2001:1458::/32"}, 0},
	{ASNARNES, "ARNES", "SI", netmodel.CatEducation, []string{"2001:1470::/32"}, 0},
	{ASNHomePL, "home.pl", "PL", netmodel.CatCloud, []string{"2a02:4780::/32"}, 0},
	{ASNGlasfaser, "Deutsche Glasfaser", "DE", netmodel.CatISP, []string{"2a00:6020::/32"}, 0},
	{ASNRacktech, "Racktech", "RU", netmodel.CatCloud, []string{"2a0e:1c80::/29"}, 0},
}

// Generate builds the world.
func Generate(p Params) (*World, error) {
	if p.Scale <= 0 {
		return nil, fmt.Errorf("worldgen: non-positive scale %v", p.Scale)
	}
	if p.ScanIntervalDays <= 0 {
		p.ScanIntervalDays = 7
	}
	w := &World{
		Params:          p,
		Blocklist:       ip6.NewPrefixSet(),
		transientByWeek: make(map[int][]ip6.Addr),
		PassiveNSMX:     ip6.NewSet(0),
		Registry:        dnsdb.NewRegistry(),
	}

	ases := buildASes(p)
	table := netmodel.NewASTable(ases)
	w.Net = netmodel.NewNetwork(p.Seed, table)

	w.buildGFW(p)
	w.buildAliases(p)
	w.buildHosts(p)
	w.buildDomains(p)
	w.buildSchedule(p)
	w.buildBlocklist(p)
	w.buildNewSources(p)
	// World assembly is done: freeze the host table into the
	// shard-aligned sorted index so per-probe lookups skip map hashing.
	w.Net.Seal()
	return w, nil
}

func buildASes(p Params) []*netmodel.AS {
	var out []*netmodel.AS
	for _, s := range namedASes {
		as := &netmodel.AS{
			ASN: s.asn, Name: s.name, Country: s.cc, Category: s.cat,
			RouterRotationDays: s.rotation,
		}
		for _, ps := range s.prefixes {
			as.Announced = append(as.Announced, ip6.MustParsePrefix(ps))
			as.AnnouncedFrom = append(as.AnnouncedFrom, 0)
		}
		out = append(out, as)
	}

	// Chinese ASes (Table 5): disjoint /24s under 2400::/12-ish space.
	for i, cn := range CNShares {
		hi := uint64(0x2400)<<48 | uint64(0x10+i)<<40
		pfx := ip6.PrefixFrom(ip6.AddrFromUint64s(hi, 0), 24)
		out = append(out, &netmodel.AS{
			ASN: cn.ASN, Name: fmt.Sprintf("CN-AS%d", cn.ASN), Country: "CN",
			Category: netmodel.CatISP, RouterRotationDays: 7,
			Announced: []ip6.Prefix{pfx}, AnnouncedFrom: []int{0},
		})
	}

	// EpicUp: several short /28 announcements (the shortest aliased
	// prefixes in the paper).
	epic := &netmodel.AS{ASN: ASNEpicUp, Name: "EpicUp", Country: "US", Category: netmodel.CatCloud}
	for i := 0; i < 4; i++ {
		hi := uint64(0x2a10)<<48 | uint64(i)<<40
		epic.Announced = append(epic.Announced, ip6.PrefixFrom(ip6.AddrFromUint64s(hi, 0), 28))
		epic.AnnouncedFrom = append(epic.AnnouncedFrom, 0)
	}
	out = append(out, epic)

	// Trafficforce: its /64s appear in BGP only at TrafficforceDay.
	tf := &netmodel.AS{ASN: ASNTrafficforce, Name: "Trafficforce", Country: "LT", Category: netmodel.CatEnterprise}
	nTF := p.count(66400)
	for i := 0; i < nTF; i++ {
		hi := uint64(0x2a11)<<48 | uint64(i)
		tf.Announced = append(tf.Announced, ip6.PrefixFrom(ip6.AddrFromUint64s(hi, 0), 64))
		tf.AnnouncedFrom = append(tf.AnnouncedFrom, TrafficforceDay)
	}
	out = append(out, tf)

	// Synthetic tail ASes: hosting and eyeball networks under 2c00::/12.
	r := rng.NewStream(p.Seed, "tail-ases")
	for i := 0; i < p.TailASes; i++ {
		hi := uint64(0x2c00)<<48 | uint64(i+1)<<32
		cat := netmodel.CatEnterprise
		switch i % 5 {
		case 0:
			cat = netmodel.CatCloud
		case 1:
			cat = netmodel.CatISP
		case 2:
			cat = netmodel.CatEducation
		}
		rotation := 0
		if cat == netmodel.CatISP && r.Bool(0.4) {
			rotation = 14 + r.Intn(40)
		}
		out = append(out, &netmodel.AS{
			ASN: 300000 + i, Name: fmt.Sprintf("Tail-%d", i), Country: tailCC(i),
			Category: cat, RouterRotationDays: rotation,
			Announced:     []ip6.Prefix{ip6.PrefixFrom(ip6.AddrFromUint64s(hi, 0), 32)},
			AnnouncedFrom: []int{0},
		})
	}
	return out
}

func tailCC(i int) string {
	ccs := []string{"DE", "US", "FR", "NL", "GB", "JP", "BR", "IN", "SE", "PL"}
	return ccs[i%len(ccs)]
}

// buildGFW wires the injector: affected ASes, blocked domains, eras.
func (w *World) buildGFW(p Params) {
	g := netmodel.NewGFWModel(p.Seed)
	for _, cn := range CNShares {
		g.AffectedASNs[cn.ASN] = true
		as := w.Net.AS.ByASN(cn.ASN)
		w.cnSpace = append(w.cnSpace, cnRegion{asn: cn.ASN, prefix: as.Announced[0], weight: cn.Share})
	}
	g.BlockedDomains["google.com"] = true
	g.BlockedDomains["facebook.com"] = true
	g.BlockedDomains["twitter.com"] = true
	// Three eras, matching the Figure 3 spikes: two A-record events and
	// the long Teredo event that outlives the April 2022 data edge (the
	// Section 6 scans a few weeks later still observe injection).
	g.Eras = []netmodel.InjectionEra{
		{StartDay: netmodel.DayOf(2019, 4, 15), EndDay: netmodel.DayOf(2019, 9, 1), Mode: netmodel.InjectA},
		{StartDay: netmodel.DayOf(2020, 5, 1), EndDay: netmodel.DayOf(2020, 11, 1), Mode: netmodel.InjectA},
		{StartDay: netmodel.DayOf(2021, 2, 1), EndDay: EndDay + 60, Mode: netmodel.InjectTeredo},
	}
	w.Net.GFW = g
}

// buildSchedule produces scan days: weekly until mid-2021, then the
// slower cadence the paper reports (runtime grew to multiple days).
func (w *World) buildSchedule(p Params) {
	slowFrom := netmodel.DayOf(2021, 7, 1)
	day := 0
	for day <= EndDay {
		w.ScanDays = append(w.ScanDays, day)
		step := p.ScanIntervalDays
		if day >= slowFrom {
			step += p.ScanIntervalDays / 2
		}
		day += step
	}
	if w.ScanDays[len(w.ScanDays)-1] != EndDay {
		w.ScanDays = append(w.ScanDays, EndDay)
	}
}

// buildBlocklist adds a few opted-out networks (the paper's request-based
// blocklist removes ~1.5 M input addresses).
func (w *World) buildBlocklist(p Params) {
	w.Blocklist.Add(ip6.MustParsePrefix("2001:1458:500::/48")) // a CERN enclave
	w.Blocklist.Add(ip6.MustParsePrefix("2003:40::/32"))       // a DTAG region
	w.Blocklist.Add(ip6.MustParsePrefix("2c00:7::/32"))        // a tail AS
}

// SnapshotDays returns the Table 1 snapshot days clipped to the schedule.
func (w *World) SnapshotDays() []int {
	return []int{netmodel.Day2018, netmodel.Day2019, netmodel.Day2020, netmodel.Day2021, netmodel.Day2022}
}

// DateLabel formats a day for reports.
func DateLabel(day int) string { return netmodel.DateString(day) }
