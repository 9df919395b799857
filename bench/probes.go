package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"hitlist6/internal/apd"
	"hitlist6/internal/ckpt"
	"hitlist6/internal/core"
	"hitlist6/internal/dnswire"
	"hitlist6/internal/gfw"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
	"hitlist6/internal/serve"
	"hitlist6/internal/tga"
)

// layerTrace gathers a traced repetition's per-layer numbers: counters
// read off each ScanRecord, manifest and fleet result as the loop runs,
// runtime.MemStats deltas around the core calls, and — once per process —
// direct probes of each layer on the state the timeline left. All
// methods are no-ops on a nil receiver, which is what the untraced
// repetition passes.
type layerTrace struct {
	metrics map[string]float64
	sums    map[string]float64 // per-scan and per-checkpoint accumulations
	scans   int
	rounds  int
	ckpts   int
	fullMS  []float64
	deltaMS []float64

	mem         runtime.MemStats
	gcPause0    uint64
	pubRefrozen uint64
}

func newLayerTrace() *layerTrace {
	lt := &layerTrace{metrics: map[string]float64{}, sums: map[string]float64{}}
	runtime.ReadMemStats(&lt.mem)
	lt.gcPause0 = lt.mem.PauseTotalNs
	return lt
}

// beforeAlloc marks the allocation counter before a core call.
func (lt *layerTrace) beforeAlloc() {
	if lt != nil {
		runtime.ReadMemStats(&lt.mem)
	}
}

// allocMB returns the megabytes allocated since beforeAlloc.
func (lt *layerTrace) allocMB() float64 {
	before := lt.mem.TotalAlloc
	runtime.ReadMemStats(&lt.mem)
	return float64(lt.mem.TotalAlloc-before) / 1e6
}

// afterScan folds one finished scan's counters in.
func (lt *layerTrace) afterScan(e *env, rec *core.ScanRecord) {
	if lt == nil {
		return
	}
	lt.scans++
	s := lt.sums
	s["core.alloc_mb"] += lt.allocMB()
	s["core.new_input"] += float64(rec.NewInput)
	s["core.scanned_targets"] += float64(rec.ScannedTargets)

	var busy, slowest int64
	var probes uint64
	for _, sh := range rec.ShardStats {
		busy += sh.Nanos
		slowest = max(slowest, sh.Nanos)
		probes += sh.ProbesSent
	}
	s["scan.main_busy_ms"] += float64(busy) / 1e6
	s["scan.main_probes"] += float64(probes)
	if busy > 0 {
		s["scan.shard_skew"] += float64(slowest) * float64(len(rec.ShardStats)) / float64(busy)
	}

	if fr := e.svc.LastFleet(); len(fr.Workers) > 0 {
		var wbusy, wmax int64
		for _, w := range fr.Workers {
			s["fleet.steals"] += float64(w.Steals)
			wbusy += w.Nanos
			wmax = max(wmax, w.Nanos)
		}
		s["fleet.reissued"] += float64(fr.Reissued)
		s["fleet.worker_busy_ms"] += float64(wbusy) / 1e6
		if wbusy > 0 {
			s["fleet.worker_skew"] += float64(wmax) * float64(len(fr.Workers)) / float64(wbusy)
		}
	}

	if rec.TGACandidates > 0 {
		lt.rounds++
		s["tga.candidates"] += float64(rec.TGACandidates)
		s["tga.responsive"] += float64(rec.TGAResponsive)
		s["tga.refrozen_shards"] += float64(rec.TGARefrozenShards)
	}

	if e.cfg.ServeSnapshots {
		refrozen, _, build := e.svc.QueryHandle().PublishStats()
		s["serve.publish_ms"] += ms(build)
		s["serve.refrozen_shards"] += float64(refrozen - lt.pubRefrozen)
		lt.pubRefrozen = refrozen
	}
}

// afterCheckpoint folds one committed checkpoint in.
func (lt *layerTrace) afterCheckpoint(m ckpt.Manifest, wallMS float64) {
	if lt == nil {
		return
	}
	lt.ckpts++
	lt.sums["core.checkpoint_alloc_mb"] += lt.allocMB()
	lt.sums["ckpt.files"] += float64(len(m.Files))
	lt.metrics["ckpt.chain_depth_max"] = max(lt.metrics["ckpt.chain_depth_max"], float64(m.Depth))
	if m.Depth == 0 {
		lt.fullMS = append(lt.fullMS, wallMS)
	} else {
		lt.deltaMS = append(lt.deltaMS, wallMS)
	}
}

func (lt *layerTrace) afterResume() {
	if lt != nil {
		lt.metrics["core.resume_alloc_mb"] = lt.allocMB()
	}
}

// finish turns the accumulations and the repetition's spans into the
// per-layer metrics.
func (lt *layerTrace) finish(e *env, st *repStats, spans []span, rep int) {
	m := lt.metrics
	per := func(name, sumKey string, n int) {
		if n > 0 {
			m[name] = lt.sums[sumKey] / float64(n)
		}
	}
	per("core.alloc_mb_per_scan", "core.alloc_mb", lt.scans)
	per("core.new_input_per_scan", "core.new_input", lt.scans)
	per("core.scanned_targets_per_scan", "core.scanned_targets", lt.scans)
	per("scan.main_busy_ms_per_scan", "scan.main_busy_ms", lt.scans)
	per("scan.main_probes_per_scan", "scan.main_probes", lt.scans)
	per("scan.shard_skew", "scan.shard_skew", lt.scans)
	per("fleet.steals_per_scan", "fleet.steals", lt.scans)
	per("fleet.reissued_per_scan", "fleet.reissued", lt.scans)
	per("fleet.worker_busy_ms_per_scan", "fleet.worker_busy_ms", lt.scans)
	per("fleet.worker_skew", "fleet.worker_skew", lt.scans)
	per("tga.candidates_per_round", "tga.candidates", lt.rounds)
	per("tga.responsive_per_round", "tga.responsive", lt.rounds)
	per("tga.refrozen_shards_per_round", "tga.refrozen_shards", lt.rounds)
	if c := lt.sums["tga.candidates"]; c > 0 {
		m["tga.hits_per_kcand"] = lt.sums["tga.responsive"] / c * 1000
	}
	per("serve.publish_ms_per_scan", "serve.publish_ms", lt.scans)
	per("serve.refrozen_shards_per_scan", "serve.refrozen_shards", lt.scans)
	per("core.checkpoint_alloc_mb_per_ckpt", "core.checkpoint_alloc_mb", lt.ckpts)
	per("ckpt.files_per_ckpt", "ckpt.files", lt.ckpts)
	m["ckpt.full_ms_p50"] = median(lt.fullMS)
	m["ckpt.delta_ms_p50"] = median(lt.deltaMS)
	m["ip6.spill_runs_total"] = float64(e.svc.SpilledRuns())
	m["serve.dns_p99_ns"] = quantile(st.dnsNS, 0.99)
	if st.httpQ > 0 {
		m["serve.http_ns"] = float64(st.httpWall) / float64(st.httpQ)
	}
	var pauses runtime.MemStats
	runtime.ReadMemStats(&pauses)
	m["core.gc_pause_ms_total"] = float64(pauses.PauseTotalNs-lt.gcPause0) / 1e6

	// Span-derived numbers of this repetition.
	self := selfNS(spans)
	spanSum := map[string]float64{}
	for i, s := range spans {
		if s.Rep != rep {
			continue
		}
		switch s.Name {
		case "scan":
			spanSum["self"] += float64(self[i]) / 1e6
		case "sources.collect":
			spanSum["collect"] += s.durMS()
			spanSum["collected"] += float64(s.Count)
			if s.Label == "traceroute-cn" {
				spanSum["yarrp"] += s.durMS()
			}
		case "tga.pull":
			spanSum["pull."+s.Label] += s.durMS()
			spanSum["emitted."+s.Label] += float64(s.Count)
		case "worldgen.generate", "worldgen.buildfeeds", "hlfile.open", "hlfile.sortedset":
			m[s.Name+"_ms"] = s.durMS()
		case "hlfile.write":
			m["hlfile.write_mb_s"] = float64(s.Count) / 1e6 / (s.durMS() / 1e3)
		}
	}
	if lt.scans > 0 {
		n := float64(lt.scans)
		m["core.runscan_self_ms_per_scan"] = spanSum["self"] / n
		m["sources.collect_ms_per_scan"] = spanSum["collect"] / n
		m["sources.candidates_per_scan"] = spanSum["collected"] / n
		m["yarrp.collect_ms_per_scan"] = spanSum["yarrp"] / n
	}
	if lt.rounds > 0 {
		for _, g := range tgaGens {
			m["tga."+g+".pull_ms_per_round"] = spanSum["pull."+g] / float64(lt.rounds)
			m["tga."+g+".emitted_per_round"] = spanSum["emitted."+g] / float64(lt.rounds)
		}
	}
}

// nsPerOp times n calls of fn and returns nanoseconds per call.
func nsPerOp(n int, fn func(i int)) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t)) / float64(n)
}

// allocsPerOp is testing.AllocsPerRun without the testing package:
// mallocs per call over n calls after one warm-up call, rounded down.
func allocsPerOp(n int, fn func(i int)) float64 {
	fn(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(n))
}

// probeSample is the fixed address sample of the direct probes: half
// real hosts of the world (every k-th in walk order), half uniform-random
// addresses, which no host answers.
func probeSample(e *env, seed uint64, n int) []ip6.Addr {
	out := make([]ip6.Addr, 0, n)
	step := max(e.w.Net.NumHosts()/(n/2), 1)
	i := 0
	e.w.Net.WalkHosts(func(h *netmodel.Host) bool {
		if i%step == 0 {
			out = append(out, h.Addr)
		}
		i++
		return len(out) < n/2
	})
	r := rng.NewStream(seed, "bench-probe-sample")
	for len(out) < n {
		out = append(out, ip6.AddrFromUint64s(0x2001_0000_0000_0000|r.Uint64()&0x0fff_ffff_ffff, r.Uint64()))
	}
	return out
}

// probeLayers calls each layer's public functions directly on the state
// the timeline left, one probe.<layer> span each. The numbers say what a
// layer costs alone, next to what the loop spent in it.
func (h *harness) probeLayers(e *env, lt *layerTrace, root int) {
	m := lt.metrics
	ctx := context.Background()
	day := e.days[len(e.days)-1]
	scanner := e.svc.Scanner()
	sample := probeSample(e, h.seed, 2048)
	const loops = 8 // passes over the sample per timing
	at := func(i int) ip6.Addr { return sample[i%len(sample)] }
	span := func(layer string, fn func() error) {
		id := h.tr.begin("probe."+layer, "", root)
		err := fn()
		h.tr.end(id, 0)
		h.ops++
		if err != nil {
			h.fail(1, "probe.%s: %v", layer, err)
		}
	}

	var input []ip6.Addr
	for _, part := range e.lastInput {
		input = append(input, part...)
	}

	span("scan", func() error {
		t := time.Now()
		stats, err := scanner.StreamFrom(ctx, scan.SliceSource(input), e.cfg.Protocols, day, func(*scan.Batch) error { return nil })
		if err != nil {
			return err
		}
		if stats.ProbesSent > 0 {
			m["scan.stream_ns_per_probe"] = float64(time.Since(t)) / float64(stats.ProbesSent)
		}
		for p, label := range protoDatasets {
			proto := netmodel.Protocol(p)
			m["scan.probeone_ns."+label] = nsPerOp(loops*len(sample), func(i int) { scanner.ProbeOne(at(i), proto, day) })
		}
		m["scan.probeone_allocs"] = allocsPerOp(len(sample), func(i int) { scanner.ProbeOne(at(i), netmodel.ICMP, day) })
		return nil
	})

	span("netmodel", func() error {
		net := e.w.Net
		m["netmodel.probe_echo_ns"] = nsPerOp(loops*len(sample), func(i int) {
			net.Probe(netmodel.Probe{Kind: netmodel.EchoRequest, Target: at(i), Day: day})
		})
		m["netmodel.probe_syn_ns"] = nsPerOp(loops*len(sample), func(i int) {
			net.Probe(netmodel.Probe{Kind: netmodel.TCPSYN, Target: at(i), Day: day, Port: 443})
		})
		return nil
	})

	span("apd", func() error {
		cfg := apd.DefaultConfig()
		t := time.Now()
		res, err := apd.NewDetector(scanner, cfg).Run(ctx, apd.Candidates(e.w.Net.AS.AnnouncedPrefixes(), input, cfg), day)
		if err != nil {
			return err
		}
		d := time.Since(t)
		m["apd.run_ms"] = ms(d)
		m["apd.probes_per_run"] = float64(res.Probes)
		if res.Probes > 0 {
			m["apd.ns_per_probe"] = float64(d) / float64(res.Probes)
		}
		return nil
	})

	span("gfw", func() error {
		// UDP/53 results from addresses with injection evidence (CN
		// space) on the last, era-3 day; plain sample hosts when the
		// world is too small to have seen any.
		targets := e.svc.Tracker().InjectedSeen().Sorted()
		if len(targets) == 0 {
			targets = sample
		}
		targets = targets[:min(len(targets), 2048)]
		results := make([]scan.Result, len(targets))
		for i, a := range targets {
			results[i] = scanner.ProbeOne(a, netmodel.UDP53, day)
		}
		m["gfw.classify_ns"] = nsPerOp(loops*len(results), func(i int) { gfw.ClassifyResult(results[i%len(results)]) })
		return nil
	})

	span("ip6", func() error {
		// Replay the service's whole input history into a fresh spill
		// set at the durable workload's per-shard budget.
		budget := int(durableBudget / ip6.AddrBytes / (netmodel.NumProtocols + 3) / ip6.AddrShards)
		set, err := ip6.NewSpillSet(e.dir, budget)
		if err != nil {
			return err
		}
		defer set.Close()
		seen := e.svc.InputSeen().Sorted()
		if len(seen) == 0 {
			return fmt.Errorf("service has seen no input")
		}
		m["ip6.spill_add_ns"] = nsPerOp(len(seen), func(i int) { set.Add(seen[i]) })
		t := time.Now()
		if err := set.Compact(); err != nil {
			return err
		}
		m["ip6.spill_compact_ms"] = ms(time.Since(t))
		m["ip6.spill_has_ns"] = nsPerOp(2*len(sample), func(i int) {
			if i%2 == 0 {
				set.Has(seen[i%len(seen)])
			} else {
				set.Has(at(i))
			}
		})
		return set.Err()
	})

	span("ckpt", func() error {
		t := time.Now()
		_, err := ckpt.OpenChain(e.ckptDir)
		m["ckpt.open_chain_ms"] = ms(time.Since(t))
		return err
	})

	span("tga", func() error {
		view := tga.NewSeedView(e.seeds)
		for i, g := range newGenerators() {
			t := time.Now()
			g.EmitView(view, tgaBudget, func(ip6.Addr) bool { return true })
			m["tga."+tgaGens[i]+".scratch_ms"] = ms(time.Since(t))
		}
		return nil
	})

	span("serve", func() error {
		b := e.block
		n := len(b.wires)
		m["serve.lookup_ns"] = nsPerOp(n, func(i int) { e.handle.Lookup(b.addrs[i]) })
		responder := serve.NewDNSResponder(e.handle, benchZone)
		var sc serve.Scratch
		dst := make([]byte, 0, 512)
		respond := func(i int) { dst = responder.Respond(b.wires[i], dst[:0], &sc) }
		m["serve.respond_ns"] = nsPerOp(n, respond)
		m["serve.respond_allocs"] = allocsPerOp(n, respond)
		if m["serve.respond_allocs"] != 0 {
			h.fail(1, "DNSResponder.Respond allocates %v times per query, want 0", m["serve.respond_allocs"])
		}
		handler := serve.NewHTTPHandler(e.handle)
		k := min(n, 2048)
		reqs := make([]*http.Request, k)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodGet, "/v1/query?addr="+b.addrs[i].String(), nil)
		}
		w := &bodyWriter{hdr: make(http.Header)}
		m["serve.http_allocs"] = allocsPerOp(k, func(i int) {
			w.body.Reset()
			handler.ServeHTTP(w, reqs[i])
		})
		return nil
	})

	span("dnswire", func() error {
		b := e.block
		var q dnswire.ServerQuery
		m["dnswire.decode_query_ns"] = nsPerOp(len(b.wires), func(i int) {
			_ = dnswire.DecodeQueryInto(b.wires[i], &q)
		})
		return nil
	})
}
