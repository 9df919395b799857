package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"hitlist6/internal/analysis"
	"hitlist6/internal/apd"
	"hitlist6/internal/core"
	"hitlist6/internal/dnsdb"
	"hitlist6/internal/dnswire"
	"hitlist6/internal/fingerprint"
	"hitlist6/internal/gfw"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
	"hitlist6/internal/serve"
	"hitlist6/internal/tga"
	"hitlist6/internal/tga/dc"
	"hitlist6/internal/worldgen"
	"hitlist6/internal/yarrp"
)

// DNSEval reproduces the Section 4.2 experiment: probe every remaining
// DNS responder with a unique-hash subdomain of our own zone and classify
// the behaviour using the responses and our authoritative server's log.
func DNSEval(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}
	snap, err := s.snapshotFor(netmodel.Day2022)
	if err != nil {
		return err
	}
	targets := snap.Responsive[netmodel.UDP53].Sorted()
	zone := s.World.Net.OurZone
	qnameFor := func(a ip6.Addr) string {
		return fmt.Sprintf("h%016x.%s", rng.Mix(a.Hi(), a.Lo(), 0xd25), zone)
	}
	cfg := scan.DefaultConfig(s.P.Seed + 1)
	cfg.LossRate = 0
	cfg.QNameFor = qnameFor
	probe := scan.New(s.World.Net, cfg)

	s.World.Net.NSLogSnapshot() // clear any earlier entries
	// Batches arrive concurrently, so the counters sit under a lock. The
	// DNS payloads alias the batch arena and are decoded inside the sink;
	// the AAAA answers wait for the NS log, read once the scan is done.
	var (
		mu                                 sync.Mutex
		refusing, referral, broken, silent int
		answered                           []ip6.Addr
	)
	_, err = probe.StreamFrom(ctx, scan.SliceSource(targets), []netmodel.Protocol{netmodel.UDP53}, worldgen.EndDay, func(b *scan.Batch) error {
		mu.Lock()
		defer mu.Unlock()
		for i := range b.Results {
			r := &b.Results[i]
			if !r.Success || len(r.DNS) == 0 {
				silent++
				continue
			}
			m, err := dnswire.Decode(r.DNS[0])
			if err != nil {
				broken++
				continue
			}
			switch {
			case m.Header.RCode == dnswire.RCodeRefused || m.Header.RCode == dnswire.RCodeServFail || m.Header.RCode == dnswire.RCodeNXDomain:
				refusing++
			case m.Header.RCode == dnswire.RCodeNoError && len(m.Answers) > 0 && m.Answers[0].Type == dnswire.TypeAAAA && m.Answers[0].Target != "localhost":
				answered = append(answered, r.Target)
			case len(m.Authority) > 0 && m.Authority[0].Type == dnswire.TypeNS:
				referral++
			default:
				broken++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	nslog := make(map[string]ip6.Addr)
	for _, q := range s.World.Net.NSLogSnapshot() {
		nslog[q.QName] = q.Source
	}
	var open, proxy int
	for _, a := range answered {
		if src, ok := nslog[dnswire.NormalizeName(qnameFor(a))]; ok && src == a {
			open++
		} else if ok {
			proxy++
		} else {
			broken++
		}
	}
	total := len(targets)
	fmt.Fprintf(w, "Section 4.2 — behaviour of %d remaining DNS responders (unique-subdomain probe)\n\n", total)
	tb := analysis.NewTable("class", "targets", "share")
	tb.Row("error status (refusing)", refusing, analysis.Pct(refusing, total))
	tb.Row("open resolver (query seen at our NS)", open, analysis.Pct(open, total))
	tb.Row("referral to root/parent", referral, analysis.Pct(referral, total))
	tb.Row("proxy (NS query from other address)", proxy, analysis.Pct(proxy, total))
	tb.Row("incorrect/broken", broken, analysis.Pct(broken, total))
	tb.Row("no response", silent, analysis.Pct(silent, total))
	fmt.Fprint(w, tb)
	fmt.Fprintf(w, "\npaper: 93.8 %% refusing, 4.6 %% open resolvers, 593 referrals, 15 proxies, 1.1 %% broken\n")
	return nil
}

// Fingerprints reproduces Section 5.1: TCP fingerprints across aliased
// prefixes and the Too Big Trick outcome distribution.
func Fingerprints(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}
	prefixes := s.aliasedExclTrafficforce()
	const maxPrefixes = 600
	if len(prefixes) > maxPrefixes {
		prefixes = prefixes[:maxPrefixes]
	}

	var uniform, windowOnly, varied, noTCP int
	tbt := map[fingerprint.TBTOutcome]int{}
	for _, p := range prefixes {
		samples, err := fingerprint.CollectTCP(ctx, s.Svc.Scanner(), p, 12, worldgen.EndDay)
		if err != nil {
			return err
		}
		sum := fingerprint.Summarize(samples)
		switch {
		case sum.Samples == 0:
			noTCP++
		case sum.Uniform:
			uniform++
		case sum.WindowOnly:
			windowOnly++
		default:
			varied++
		}
		s.World.Net.ResetPMTU()
		res := fingerprint.TooBigTrick(s.World.Net, p, worldgen.EndDay)
		tbt[res.Outcome]++
	}

	fmt.Fprintf(w, "Section 5.1 — fingerprinting %d aliased prefixes\n\n", len(prefixes))
	tb := analysis.NewTable("measure", "prefixes", "share")
	withTCP := uniform + windowOnly + varied
	tb.Row("TCP fingerprint uniform", uniform, analysis.Pct(uniform, withTCP))
	tb.Row("differs only in window", windowOnly, analysis.Pct(windowOnly, withTCP))
	tb.Row("differs in other features", varied, analysis.Pct(varied, withTCP))
	tb.Row("no TCP response (ICMP-only)", noTCP, "")
	fmt.Fprint(w, tb)

	fmt.Fprintf(w, "\nToo Big Trick (8 addresses per prefix):\n")
	tb2 := analysis.NewTable("outcome", "prefixes", "share")
	applied := tbt[fingerprint.TBTAllShared] + tbt[fingerprint.TBTNoneShared] + tbt[fingerprint.TBTPartialShared]
	tb2.Row("all share one PMTU cache", tbt[fingerprint.TBTAllShared], analysis.Pct(tbt[fingerprint.TBTAllShared], applied))
	tb2.Row("partial sharing (2-7)", tbt[fingerprint.TBTPartialShared], analysis.Pct(tbt[fingerprint.TBTPartialShared], applied))
	tb2.Row("no sharing", tbt[fingerprint.TBTNoneShared], analysis.Pct(tbt[fingerprint.TBTNoneShared], applied))
	tb2.Row("unsupported", tbt[fingerprint.TBTUnsupported], "")
	fmt.Fprint(w, tb2)
	fmt.Fprintf(w, "\npaper: 99.5 %% uniform FPs; TBT 93.75 %% all-shared, 5.4 %% partial, 0.85 %% none\n")
	return nil
}

// Domains reproduces Section 5.2: how many domains resolve into aliased
// prefixes, and how many ranked domains are affected.
func Domains(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}
	aliased := s.Svc.AliasedPrefixes()
	reg := s.World.Registry

	inAliased := 0
	prefixDomains := make(map[ip6.Prefix]int)
	asSet := make(map[int]bool)
	var listHits [dnsdb.NumTopLists]int
	top1k := 0
	reg.Walk(func(d *dnsdb.Domain) bool {
		hit := false
		for _, a := range d.AAAA {
			if p, ok := aliased.Match(a); ok {
				hit = true
				prefixDomains[p]++
				if as := s.World.Net.AS.Lookup(a); as != nil {
					asSet[as.ASN] = true
				}
				break
			}
		}
		if hit {
			inAliased++
			for l := 0; l < dnsdb.NumTopLists; l++ {
				if d.Ranks[l] > 0 {
					listHits[l]++
					if l == int(dnsdb.Alexa) && d.Ranks[l] <= 1000 {
						top1k++
					}
				}
			}
		}
		return true
	})
	maxPrefix, maxCount := ip6.Prefix{}, 0
	for p, c := range prefixDomains {
		if c > maxCount {
			maxPrefix, maxCount = p, c
		}
	}

	fmt.Fprintf(w, "Section 5.2 — domains hosted in aliased prefixes\n\n")
	tb := analysis.NewTable("measure", "value")
	tb.Row("registered domains", analysis.Humanize(reg.NumDomains()))
	tb.Row("domains in aliased prefixes", analysis.Humanize(inAliased))
	tb.Row("distinct aliased prefixes hosting domains", len(prefixDomains))
	tb.Row("ASes announcing them", len(asSet))
	tb.Row("largest prefix", fmt.Sprintf("%v (%s domains)", maxPrefix, analysis.Humanize(maxCount)))
	tb.Row("Alexa-list domains affected", analysis.Humanize(listHits[dnsdb.Alexa]))
	tb.Row("Majestic-list domains affected", analysis.Humanize(listHits[dnsdb.Majestic]))
	tb.Row("Umbrella-list domains affected", analysis.Humanize(listHits[dnsdb.Umbrella]))
	tb.Row("Alexa top-1k affected", top1k)
	fmt.Fprint(w, tb)
	fmt.Fprintf(w, "\npaper: 15.0 M domains in 5.2 k prefixes across 133 ASes; 3.94 M in one /48\n")
	return nil
}

// EUI64 reproduces the Section 4.1 input-composition analysis.
func EUI64(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}
	input, err := s.Svc.InputSeenView()
	if err != nil {
		return err
	}
	st := analysis.EUI64Analysis(input)
	fmt.Fprintf(w, "Section 4.1 — EUI-64 composition of the cumulative input\n\n")
	tb := analysis.NewTable("measure", "value")
	tb.Row("input addresses", analysis.Humanize(st.Total))
	tb.Row("EUI-64 addresses", fmt.Sprintf("%s (%s)", analysis.Humanize(st.EUI64), analysis.Pct(st.EUI64, st.Total)))
	tb.Row("distinct MAC addresses", analysis.Humanize(st.DistinctMACs))
	tb.Row("MACs seen in exactly one address", analysis.Humanize(st.SingleUseMACs))
	tb.Row("most frequent MAC appears in", fmt.Sprintf("%s addresses", analysis.Humanize(st.TopMACAddrs)))
	tb.Row("its OUI", fmt.Sprintf("%02x:%02x:%02x", st.TopOUI[0], st.TopOUI[1], st.TopOUI[2]))
	fmt.Fprint(w, tb)
	fmt.Fprintf(w, "\npaper: 282 M EUI-64 input addresses from 22.7 M MACs; top value in 240 k addresses (ZTE OUI)\n")
	return nil
}

// Ablations quantifies the design choices the paper motivates.
func Ablations(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}

	// (a) APD cross-scan merge vs detection stability under loss.
	fmt.Fprintf(w, "Ablation A — APD merge window vs detection stability (25 %% probe loss)\n\n")
	var truth []ip6.Prefix
	for _, rule := range s.World.Net.AliasRules() {
		if rule.Prefix.Bits() == 64 && rule.BornDay == 0 {
			truth = append(truth, rule.Prefix)
			if len(truth) == 64 {
				break
			}
		}
	}
	lossy := scan.DefaultConfig(s.P.Seed + 7)
	lossy.LossRate = 0.25
	lossy.Retries = 0
	lossyScanner := scan.New(s.World.Net, lossy)
	tbA := analysis.NewTable("merge window", "detection rate")
	for _, window := range []int{0, 1, 3} {
		det := apd.NewDetector(lossyScanner, apd.Config{MergeScans: window})
		detected, rounds := 0, 0
		for day := worldgen.EndDay; day < worldgen.EndDay+8; day++ {
			res, err := det.Run(ctx, truth, day)
			if err != nil {
				return err
			}
			if day >= worldgen.EndDay+window {
				rounds += len(truth)
				res.Aliased.Walk(func(ip6.Prefix) bool { detected++; return true })
			}
		}
		tbA.Row(window, analysis.Pct(detected, rounds))
	}
	fmt.Fprint(w, tbA)

	// (b) APD long-prefix threshold vs candidate volume and recall.
	fmt.Fprintf(w, "\nAblation B — APD ≥N-address threshold for >/64 prefixes\n\n")
	var longInput []ip6.Addr
	r := rng.NewStream(s.P.Seed, "ablation-long")
	var longTruth []ip6.Prefix
	for _, rule := range s.World.Net.AliasRules() {
		if rule.Prefix.Bits() > 64 {
			longTruth = append(longTruth, rule.Prefix)
			// The service input saw a handful of addresses here.
			n := 3 + r.Intn(20)
			for i := 0; i < n; i++ {
				longInput = append(longInput, rule.Prefix.RandomAddr(r))
			}
		}
	}
	tbB := analysis.NewTable("threshold", "candidates", "long aliased detected", "recall")
	for _, threshold := range []int{100, 20, 5} {
		cfg := apd.DefaultConfig()
		cfg.MinAddrsLongPrefix = threshold
		cands := apd.Candidates(nil, longInput, cfg)
		det := apd.NewDetector(s.Svc.Scanner(), cfg)
		res, err := det.Run(ctx, cands, worldgen.EndDay)
		if err != nil {
			return err
		}
		found := 0
		for _, p := range longTruth {
			if res.Aliased.Has(p) {
				found++
			}
		}
		tbB.Row(threshold, len(cands), found, analysis.Pct(found, len(longTruth)))
	}
	fmt.Fprint(w, tbB)

	// (c) Distance clustering parameters.
	fmt.Fprintf(w, "\nAblation C — distance clustering parameters (seeds: Dec 2021 responsive)\n\n")
	snap, err := s.snapshotFor(s.SnapDec2021)
	if err != nil {
		return err
	}
	seeds := tga.NewSeedView(snap.ResponsiveAny)
	tbC := analysis.NewTable("min size", "max gap", "candidates", "responsive", "hit rate")
	for _, cfgRow := range []dc.Config{
		{MinClusterSize: 10, MaxGap: 64, MaxFill: 4096},
		{MinClusterSize: 5, MaxGap: 64, MaxFill: 4096},
		{MinClusterSize: 10, MaxGap: 16, MaxFill: 4096},
		{MinClusterSize: 10, MaxGap: 256, MaxFill: 4096},
		{MinClusterSize: 20, MaxGap: 64, MaxFill: 4096},
	} {
		src := tga.NewViewSource(dc.New(cfgRow), seeds, 200000)
		sets, _, err := s.Svc.Scanner().StreamResponsiveFrom(ctx, src, []netmodel.Protocol{netmodel.ICMP}, worldgen.EndDay)
		if err != nil {
			return err
		}
		hits := sets[netmodel.ICMP].Len()
		tbC.Row(cfgRow.MinClusterSize, cfgRow.MaxGap, src.Emitted(), hits, analysis.Pct(hits, src.Emitted()))
	}
	fmt.Fprint(w, tbC)

	// (d) GFW filter placement: input-level vs post-scan.
	fmt.Fprintf(w, "\nAblation D — GFW filter placement\n\n")
	impacted, err := s.Svc.InjectedOnly()
	if err != nil {
		return err
	}
	injOnly := impacted.Len()
	injSeen := s.Svc.Tracker().InjectedSeenLen()
	multi := injSeen - injOnly
	tbD := analysis.NewTable("strategy", "addresses removed", "real multi-protocol hosts lost")
	tbD.Row("naive input-level (drop on any injection)", analysis.Humanize(injSeen), analysis.Humanize(multi))
	tbD.Row("paper's post-scan filter", analysis.Humanize(injOnly), 0)
	fmt.Fprint(w, tbD)
	fmt.Fprintf(w, "\nthe post-scan filter keeps %s addresses that are responsive on other protocols\n",
		analysis.Humanize(multi))

	// (e) Injection detectability by era evidence.
	fmt.Fprintf(w, "\nAblation E — detector evidence breakdown on a live CN scan\n\n")
	var cnTargets []ip6.Addr
	for _, cn := range s.World.Net.AS.ByASN(4134).Announced {
		rr := rng.NewStream(s.P.Seed, "ablation-cn")
		for i := 0; i < 64; i++ {
			cnTargets = append(cnTargets, cn.RandomAddr(rr))
		}
	}
	// The counts are order-free, so concurrent batches fold in under a
	// lock; the classifier reads the arena-backed payloads in the sink.
	var (
		mu                                                sync.Mutex
		aOnly, teredo, multiResp, detected, truthInjected int
	)
	_, err = s.Svc.Scanner().StreamFrom(ctx, scan.SliceSource(cnTargets), []netmodel.Protocol{netmodel.UDP53}, worldgen.EndDay, func(b *scan.Batch) error {
		mu.Lock()
		defer mu.Unlock()
		for i := range b.Results {
			res := &b.Results[i]
			if !res.Success {
				continue
			}
			c := gfw.ClassifyMessages(res.DNS)
			if c.AForAAAA {
				aOnly++
			}
			if c.Teredo {
				teredo++
			}
			if c.MultiResponse {
				multiResp++
			}
			if c.Injected() {
				detected++
			}
			if res.InjectedTruth > 0 {
				truthInjected++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	tbE := analysis.NewTable("evidence", "responses")
	tbE.Row("A-for-AAAA", aOnly)
	tbE.Row("Teredo AAAA", teredo)
	tbE.Row("multiple responses", multiResp)
	tbE.Row("classified injected", detected)
	tbE.Row("ground-truth injected", truthInjected)
	fmt.Fprint(w, tbE)
	return nil
}

// ShardBalance renders the scan engine's per-shard throughput profile —
// the raw signal behind the adaptive dispatch order: cumulative probes
// and wall-clock nanos per canonical shard across every scan of the
// timeline, as min/median/max spreads plus the heaviest shards. Probes
// per shard are deterministic; nanos measure this machine and vary run
// to run.
func ShardBalance(ctx context.Context, s *Suite, w io.Writer) error {
	if err := s.Run(ctx); err != nil {
		return err
	}
	var probes, nanos [ip6.AddrShards]int64
	scans := 0
	for _, rec := range s.Svc.Records() {
		if len(rec.ShardStats) != ip6.AddrShards {
			continue
		}
		scans++
		for sh, st := range rec.ShardStats {
			probes[sh] += int64(st.ProbesSent)
			nanos[sh] += st.Nanos
		}
	}
	if scans == 0 {
		return fmt.Errorf("experiments: no per-shard stats recorded")
	}

	spread := func(vals [ip6.AddrShards]int64) (min, med, max int64) {
		sorted := append([]int64(nil), vals[:]...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1]
	}
	pMin, pMed, pMax := spread(probes)
	nMin, nMed, nMax := spread(nanos)

	fmt.Fprintf(w, "Shard balance — engine throughput per canonical shard (%d scans, %d shards)\n\n",
		scans, ip6.AddrShards)
	tb := analysis.NewTable("metric", "min", "median", "max", "max/median")
	ratio := "n/a"
	if pMed > 0 {
		ratio = fmt.Sprintf("%.2fx", float64(pMax)/float64(pMed))
	}
	tb.Row("probes", analysis.Humanize(int(pMin)), analysis.Humanize(int(pMed)), analysis.Humanize(int(pMax)), ratio)
	ratio = "n/a"
	if nMed > 0 {
		ratio = fmt.Sprintf("%.2fx", float64(nMax)/float64(nMed))
	}
	tb.Row("probe-time (ms)", fmt.Sprintf("%.1f", float64(nMin)/1e6),
		fmt.Sprintf("%.1f", float64(nMed)/1e6), fmt.Sprintf("%.1f", float64(nMax)/1e6), ratio)
	fmt.Fprint(w, tb)

	order := make([]int, ip6.AddrShards)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return nanos[order[i]] > nanos[order[j]] })
	fmt.Fprintf(w, "\nheaviest shards by probe time (dispatched first by the adaptive order):\n")
	tbH := analysis.NewTable("shard", "probes", "probe-ms", "share")
	var totalNanos int64
	for _, n := range nanos {
		totalNanos += n
	}
	for _, sh := range order[:5] {
		share := "n/a"
		if totalNanos > 0 {
			share = analysis.Pct(int(nanos[sh]/1e3), int(totalNanos/1e3))
		}
		tbH.Row(fmt.Sprintf("%d", sh), analysis.Humanize(int(probes[sh])),
			fmt.Sprintf("%.1f", float64(nanos[sh])/1e6), share)
	}
	fmt.Fprint(w, tbH)
	return nil
}

// ServeWhileScanning exercises the hitlist-as-a-service layer end to
// end: a dedicated timeline run publishes an immutable snapshot at each
// finalization while reader goroutines hammer the lock-free QueryHandle
// the whole time. Every sampled answer is re-derived offline from the
// snapshot of its generation — a single torn or stale-mixed answer
// fails the experiment. The queries/s figure is informational (it
// depends on the host), the consistency counts are the artifact.
func ServeWhileScanning(ctx context.Context, s *Suite, w io.Writer) error {
	wp := worldgen.Params{
		Seed:             s.P.Seed + 1,
		Scale:            s.P.Scale,
		TailASes:         s.P.TailASes,
		ScanIntervalDays: 7,
	}
	world, err := worldgen.Generate(wp)
	if err != nil {
		return err
	}
	feeds := world.BuildFeeds(yarrp.New(world.Net, yarrp.Config{Seed: wp.Seed}))
	cfg := core.DefaultConfig(wp.Seed)
	cfg.GFWFilterFromDay = worldgen.GFWFilterDeployDay
	cfg.ServeSnapshots = true
	svc := core.NewService(cfg, world.Net, feeds, world.Blocklist)
	defer svc.Close()

	// A bounded slice of the schedule: the suite's own four-year run
	// already covers fidelity; here ~16 scans suffice to demonstrate
	// serving across many snapshot swaps.
	days := world.ScanDays
	if stride := len(days) / 16; stride > 1 {
		strided := make([]int, 0, 16)
		for i := 0; i < len(days); i += stride {
			strided = append(strided, days[i])
		}
		days = strided
	}

	r := rng.NewStream(wp.Seed, "serve-experiment")
	prefixes := world.Net.AS.AnnouncedPrefixes()
	probes := make([]ip6.Addr, 256)
	for i := range probes {
		probes[i] = prefixes[r.Intn(len(prefixes))].RandomAddr(r)
	}

	h := svc.QueryHandle()
	type sample struct {
		addr ip6.Addr
		ans  serve.Answer
	}
	const readers = 4
	done := make(chan struct{})
	var queries atomic.Int64
	samples := make([][]sample, readers)
	var wg sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		rd := rd
		wg.Add(1)
		go func() {
			defer wg.Done()
			finals := len(probes)
			for i := 0; ; i++ {
				a := probes[i%len(probes)]
				if ans, ok := h.Lookup(a); ok {
					queries.Add(1)
					// Sample sparsely so the cross-check spans the whole
					// run's generations, not just the first snapshot.
					if i%173 == 0 && len(samples[rd]) < 20000 {
						samples[rd] = append(samples[rd], sample{a, ans})
					}
				}
				select {
				case <-done:
					if finals--; finals < 0 {
						return
					}
				default:
				}
			}
		}()
	}

	snaps := make(map[uint64]*serve.Snapshot)
	for _, d := range days {
		if err := ctx.Err(); err != nil {
			close(done)
			wg.Wait()
			return err
		}
		if _, err := svc.RunScan(ctx, d); err != nil {
			close(done)
			wg.Wait()
			return err
		}
		if snap := h.Current(); snap != nil {
			snaps[snap.Generation] = snap
		}
	}
	close(done)
	wg.Wait()

	checked, torn := 0, 0
	gens := make(map[uint64]bool)
	for _, ss := range samples {
		for _, smp := range ss {
			snap, ok := snaps[smp.ans.Generation]
			if !ok {
				continue // reader sampled between Publish and the writer's map insert
			}
			gens[smp.ans.Generation] = true
			checked++
			if want := snap.Lookup(smp.addr); want != smp.ans {
				torn++
			}
		}
	}
	if checked == 0 {
		return fmt.Errorf("experiments: no reader sample matched a recorded snapshot")
	}
	if torn > 0 {
		return fmt.Errorf("experiments: %d torn answers across %d checked samples", torn, checked)
	}

	last := h.Current()
	fmt.Fprintf(w, "Hitlist-as-a-service — %d readers querying while %d scans publish snapshots\n\n",
		readers, len(days))
	tb := analysis.NewTable("metric", "value")
	tb.Row("snapshots published", fmt.Sprintf("%d", last.Generation))
	tb.Row("queries answered (informational)", analysis.Humanize(int(queries.Load())))
	tb.Row("samples cross-checked offline", analysis.Humanize(checked))
	tb.Row("generations observed by readers", fmt.Sprintf("%d", len(gens)))
	tb.Row("torn answers", "0")
	tb.Row("final snapshot: live addresses", analysis.Humanize(last.Any.Len()))
	tb.Row("final snapshot: aliased prefixes", fmt.Sprintf("%d", last.Aliased.Len()))
	tb.Row("final snapshot: GFW-injected addresses", analysis.Humanize(last.Injected.Len()))
	fmt.Fprint(w, tb)
	return nil
}
