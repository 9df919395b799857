package apd

import (
	"context"
	"reflect"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
)

// serialFill is the reference fill: one pass appending every candidate's
// 16 slots, in candidate order, to its shard's queue.
func serialFill(candidates []ip6.Prefix, day int) (addrs [ip6.AddrShards][]ip6.Addr, refs [ip6.AddrShards][]slotRef) {
	for i, p := range candidates {
		for v, a := range SlotAddrs(p, day) {
			sh := ip6.ShardOf(a)
			addrs[sh] = append(addrs[sh], a)
			refs[sh] = append(refs[sh], slotRef{cand: int32(i), v: byte(v)})
		}
	}
	return addrs, refs
}

// queueCandidates is n candidates of mixed lengths, /28 to /124.
func queueCandidates(n int) []ip6.Prefix {
	base := ip6.MustParsePrefix("2001:db8::/32")
	out := make([]ip6.Prefix, n)
	for i := range out {
		bits := 4 * (7 + i%25) // 28, 32, …, 124
		if bits <= 32 {
			out[i] = ip6.PrefixFrom(base.Addr(), bits)
			continue
		}
		k := bits - 32
		out[i] = base.Child(k, uint64(i)*0x9e3779b97f4a7c15&(1<<min(k, 63)-1))
	}
	return out
}

// requireQueue requires q's per-shard addresses and refs to be exactly
// the reference fill's.
func requireQueue(t *testing.T, what string, q *slotQueue, addrs [ip6.AddrShards][]ip6.Addr, refs [ip6.AddrShards][]slotRef) {
	t.Helper()
	for sh := range addrs {
		if len(q.addrs[sh]) != len(addrs[sh]) || len(q.refs[sh]) != len(refs[sh]) {
			t.Fatalf("%s: shard %d holds %d addrs and %d refs, serial fill %d", what, sh, len(q.addrs[sh]), len(q.refs[sh]), len(addrs[sh]))
		}
		for k := range addrs[sh] {
			if q.addrs[sh][k] != addrs[sh][k] || q.refs[sh][k] != refs[sh][k] {
				t.Fatalf("%s: shard %d slot %d is %v %+v, serial fill %v %+v", what, sh, k, q.addrs[sh][k], q.refs[sh][k], addrs[sh][k], refs[sh][k])
			}
		}
	}
}

// TestSlotQueueMatchesSerialFill holds the parallel draw to one serial
// pass: for every worker count and for candidate counts around the chunk
// size, each shard's addresses and refs equal the serial fill's, also when
// the queue is refilled over a longer previous round with marks set. A
// candidate too long to subdivide is refused before any slot is drawn.
// The parallel record is held to the serial one: after rounds that list
// prefixes twice with a different bitmap each time, and after detection
// rounds that list a prefix twice (a known row, and a new one whose
// listings are chunks apart), every worker count exports the same rows.
func TestSlotQueueMatchesSerialFill(t *testing.T) {
	const day = 40
	prev := queueCandidates(1500)
	for _, n := range []int{0, 1, roundChunk - 1, roundChunk, roundChunk + 1, 1000} {
		cands := queueCandidates(n)
		addrs, refs := serialFill(cands, day)
		for _, workers := range []int{1, 2, 3, 8} {
			var q slotQueue
			if err := q.fill(prev, day-1, workers); err != nil {
				t.Fatal(err)
			}
			for sh := range q.refs {
				for k := range q.refs[sh] {
					q.refs[sh][k].hit = true
				}
			}
			if err := q.fill(cands, day, workers); err != nil {
				t.Fatal(err)
			}
			requireQueue(t, "", &q, addrs, refs)
		}
	}

	var q slotQueue
	cands := queueCandidates(roundChunk + 1)
	if err := q.fill(cands, day, 2); err != nil {
		t.Fatal(err)
	}
	addrs, refs := serialFill(cands, day)
	tooLong := append(queueCandidates(3*roundChunk), ip6.MustParsePrefix("2001:db8::1/126"))
	if err := q.fill(tooLong, day+1, 2); err == nil {
		t.Fatal("a /126 candidate was accepted")
	}
	requireQueue(t, "after a refused fill", &q, addrs, refs)

	// The record alone, with bitmaps drawn per listing, so a prefix listed
	// twice in a round merges two different bitmaps and the order it
	// merges them in shows in its row and in its Merged.
	var wantRows []HistoryEntry
	var wantMerged [][]uint16
	for _, workers := range []int{1, 2, 3, 8} {
		d := NewDetector(nil, DefaultConfig())
		r := rng.NewStream(9, "apd-record")
		var merged [][]uint16
		for round := 0; round < 8; round++ {
			cands := queueCandidates(400 + 40*round)
			for k := 0; k < 30; k++ {
				cands = append(cands, cands[r.Intn(len(cands))])
			}
			dets := make([]Detection, len(cands))
			for i := range dets {
				dets[i].Bitmap = uint16(r.Uint64())
			}
			d.round++
			d.record(cands, dets, workers)
			m := make([]uint16, len(dets))
			for i := range dets {
				m[i] = dets[i].Merged
			}
			merged = append(merged, m)
		}
		rows := d.ExportRecorded(0)
		if len(rows) <= 2*rowBlock {
			t.Fatalf("only %d rows: the record's row partition is never split", len(rows))
		}
		if wantRows == nil {
			wantRows, wantMerged = rows, merged
			continue
		}
		if !reflect.DeepEqual(rows, wantRows) || !reflect.DeepEqual(merged, wantMerged) {
			t.Fatalf("workers=%d: the record's rows or merged bitmaps differ from one worker's", workers)
		}
	}

	n := testWorld(t)
	n.Seal()
	var want []HistoryEntry
	var wantDets []map[ip6.Prefix]Detection
	for _, workers := range []int{1, 2, 3, 8} {
		cfg := scan.DefaultConfig(5)
		cfg.LossRate = 0.5
		cfg.Workers = workers
		d := NewDetector(scan.New(n, cfg), DefaultConfig())
		var dets []map[ip6.Prefix]Detection
		for round := 0; round < 6; round++ {
			cands := roundCandidates(round)
			fresh := ip6.MustParsePrefix("2600:9000:1:ff00::/56").Child(8, uint64(round))
			cands = append(append([]ip6.Prefix{fresh}, cands...), fresh)
			res, err := d.Run(context.Background(), cands, 200+round)
			if err != nil {
				t.Fatal(err)
			}
			dets = append(dets, res.Detections())
		}
		got := d.ExportRecorded(0)
		if len(got) <= 2*rowBlock {
			t.Fatalf("only %d rows: the record's row partition is never split", len(got))
		}
		if want == nil {
			want, wantDets = got, dets
			continue
		}
		if !reflect.DeepEqual(dets, wantDets) {
			t.Fatalf("workers=%d: detections differ from one worker's", workers)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("workers=%d: row %d is %+v, one worker %+v", workers, i, got[i], want[i])
				}
			}
			t.Fatalf("workers=%d: %d rows, one worker %d", workers, len(got), len(want))
		}
	}
}
