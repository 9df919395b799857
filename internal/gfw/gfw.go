// Package gfw implements the paper's Section 4 contribution: detecting and
// filtering DNS responses injected by the Great Firewall of China.
//
// The detector works from response evidence only — exactly what a scan
// operator sees: A records answering AAAA questions, AAAA records carrying
// deprecated Teredo addresses, and multiple responses to a single query.
// Ground-truth flags from the network model are never consulted; tests use
// them solely to score the detector.
package gfw

import (
	"hitlist6/internal/dnswire"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/scan"
)

// Classification is the evidence extracted from the DNS responses to one
// probe.
type Classification struct {
	// AForAAAA: at least one response answered the AAAA question with an
	// A record only (first/second injection era signature).
	AForAAAA bool

	// Teredo: at least one AAAA answer carries a Teredo (2001::/32)
	// address (third era signature).
	Teredo bool

	// MultiResponse: more than one DNS message arrived for one query,
	// indicating multiple on-path injectors.
	MultiResponse bool

	// Responses is the number of DNS messages received.
	Responses int
}

// Injected reports whether the evidence marks the result as a GFW
// injection. A clearly erroneous record (IPv4-only answer or Teredo
// address for an AAAA question) is the deciding signal, as in the paper;
// multiple responses alone are only supporting evidence.
func (c Classification) Injected() bool { return c.AForAAAA || c.Teredo }

// ClassifyMessages inspects raw wire-format responses to a AAAA query.
// It runs on dnswire.VisitAnswers — record types and AAAA rdata are read
// straight off the wire without decoding full messages — so the service
// digest and the source evaluations classify every DNS result without
// per-message allocations.
func ClassifyMessages(msgs [][]byte) Classification {
	c := Classification{Responses: len(msgs), MultiResponse: len(msgs) > 1}
	for _, wire := range msgs {
		hasA, hasRealAAAA, teredo := false, false, false
		err := dnswire.VisitAnswers(wire, func(t dnswire.Type, aaaa ip6.Addr) bool {
			switch t {
			case dnswire.TypeA:
				hasA = true
			case dnswire.TypeAAAA:
				if aaaa.IsTeredo() {
					teredo = true
				} else {
					hasRealAAAA = true
				}
			}
			return true
		})
		if err != nil {
			// Undecodable messages contribute no evidence, as when the
			// full decoder rejected them.
			continue
		}
		if teredo {
			c.Teredo = true
		}
		if hasA && !hasRealAAAA {
			c.AForAAAA = true
		}
	}
	return c
}

// ClassifyResult classifies a live scan result (UDP/53 only; other
// protocols yield the zero Classification).
func ClassifyResult(r scan.Result) Classification {
	if r.Proto != netmodel.UDP53 || len(r.DNS) == 0 {
		return Classification{}
	}
	return ClassifyMessages(r.DNS)
}

// ClassifyRecord classifies a parsed CSV row (the file-based filter tool
// path).
func ClassifyRecord(rec scan.Record) Classification {
	if rec.Proto != netmodel.UDP53 {
		return Classification{}
	}
	c := Classification{Responses: rec.Responses, MultiResponse: rec.Responses > 1}
	hasA, hasRealAAAA := false, false
	for _, a := range rec.Answers {
		switch a.Type {
		case dnswire.TypeA:
			hasA = true
		case dnswire.TypeAAAA:
			if addr, err := ip6.ParseAddr(a.Value); err == nil {
				if addr.IsTeredo() {
					c.Teredo = true
				} else {
					hasRealAAAA = true
				}
			}
		}
	}
	if hasA && !hasRealAAAA {
		c.AForAAAA = true
	}
	return c
}

// FilterResults splits scan results into kept and injected, implementing
// the post-scan filter the service now runs: injected DNS successes are
// removed so the 30-day filter can phase the addresses out, while
// responses on other protocols pass through untouched.
func FilterResults(results []scan.Result) (kept, injected []scan.Result) {
	kept = make([]scan.Result, 0, len(results))
	for _, r := range results {
		if r.Success && ClassifyResult(r).Injected() {
			injected = append(injected, r)
			continue
		}
		kept = append(kept, r)
	}
	return kept, injected
}

// FilterRecords is FilterResults over parsed CSV rows (cmd/gfw-filter).
func FilterRecords(recs []scan.Record) (kept, injected []scan.Record) {
	kept = make([]scan.Record, 0, len(recs))
	for _, rec := range recs {
		if rec.Success && ClassifyRecord(rec).Injected() {
			injected = append(injected, rec)
			continue
		}
		kept = append(kept, rec)
	}
	return kept, injected
}

// Tracker accumulates injection evidence across the service's lifetime:
// every address that ever drew an injected DNS answer. The paper's
// cumulative input filter — the analog of its list of 134 M addresses
// that saw at least one DNS injection but never responded to any other
// protocol — is that evidence minus the responsive history the caller
// keeps anyway (InjectedOnly), so the tracker holds no copy of it.
//
// The evidence set is a cumulative ip6.SpillSet, resident, sharded by
// address hash so the service can fold a scan's evidence shard by shard
// from concurrent workers: every address of a shard's list lands in that
// shard, so no locking is needed and the accumulated state is identical
// for any worker count.
type Tracker struct {
	injectedSeen *ip6.SpillSet // addresses with ≥1 injected DNS response
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{injectedSeen: ip6.NewResidentSet()}
}

// AddEvidenceShard folds one shard's per-scan evidence into the tracker:
// the targets that drew an injected DNS answer, ascending and
// duplicate-free as a scan's digest yields them. Distinct shards may be
// folded concurrently; every address must hash to shard i.
func (t *Tracker) AddEvidenceShard(i int, injectedDNS []ip6.Addr) {
	t.injectedSeen.AddSortedToShard(i, injectedDNS)
}

// InjectedOnly returns the addresses that ever triggered an injection and
// never answered anything else — the set the paper removes from the
// cumulative input — as ascending per-shard columns: one merge walk per
// shard of the injected evidence against clean, the set of every address
// that ever answered clean on any protocol (a clean DNS answer
// included). clean's shards must not change during the walk; a read
// error of a spilled clean shard is returned.
func (t *Tracker) InjectedOnly(clean *ip6.SpillSet) (*ip6.SortedShardSet, error) {
	inj := t.FreezeInjectedSeen()
	var out [ip6.AddrShards][]ip6.Addr
	for sh := range out {
		col := inj.Shard(sh)
		if len(col) == 0 {
			continue
		}
		next := clean.ShardCursor(sh)
		c, ok, err := next()
		for _, a := range col {
			for err == nil && ok && c.Less(a) {
				c, ok, err = next()
			}
			if err != nil {
				return nil, err
			}
			if !ok || c != a {
				out[sh] = append(out[sh], a)
			}
		}
	}
	return ip6.SortedFromShards(out), nil
}

// InjectedSeen returns every address that ever showed injection evidence,
// including those that are real hosts on other protocols (which the paper
// keeps in the hitlist). The returned set is a merged copy; callers that
// only need the cardinality should use InjectedSeenLen, and membership
// checks should go through InjectedSeenHas.
func (t *Tracker) InjectedSeen() ip6.Set { return t.injectedSeen.Merge() }

// InjectedSeenHas reports whether a ever showed injection evidence,
// without materializing the merged copy.
func (t *Tracker) InjectedSeenHas(a ip6.Addr) bool { return t.injectedSeen.Has(a) }

// InjectedSeenLen returns the size of the injection-evidence set without
// materializing a merged copy.
func (t *Tracker) InjectedSeenLen() int { return t.injectedSeen.Len() }

// FreezeInjectedSeen returns the injection-evidence set as the
// point-lookup index serve snapshots carry: its view (ip6.SpillSet.View),
// so a shard that gained no evidence since an earlier freeze is the very
// same slice there. The tracker keeps accumulating evidence afterwards;
// the frozen set does not change.
func (t *Tracker) FreezeInjectedSeen() *ip6.SortedShardSet {
	v, _ := t.injectedSeen.View() // resident: reading it cannot fail
	return v
}

// EvidenceSet exposes the tracker's cumulative injection-evidence set as
// a live reference, for compaction and checkpointing: the writer reads
// it shard by shard, and restore loads straight back into it. Callers
// must honor the per-shard writing contract.
func (t *Tracker) EvidenceSet() *ip6.SpillSet { return t.injectedSeen }
