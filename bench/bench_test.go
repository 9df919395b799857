package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/serve"
)

// toy shrinks a workload to smoke size: a 1/20000 world, eight scans, a
// few thousand queries.
func toy(sp spec) spec {
	sp.scaleDen = 20000
	sp.stride = 1
	sp.scans = 8
	sp.dnsQueries = 2000
	sp.httpQueries = 100
	if sp.static > 0 {
		sp.static = 20000
	}
	return sp
}

func toyHarness(t *testing.T, name string) *harness {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	h, err := newHarness(toy(sp), 42, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h.maxReps = 2
	return h
}

// benchmarkJSON is the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONAgrees pins BENCHMARK.json to the harness's own
// tables: same workloads with the same reasons, same metrics with the
// same units, directions and bounds, in the same order.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b := readBenchmarkJSON(t)
	if got := strings.Join(b.Command, " "); got != "go run ./bench" {
		t.Errorf("command %q", got)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %v", b.Paths)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := b.Workloads[i]; w.Name != sp.name || w.Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness %q", i, w.Name, sp.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, harness %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, def := range endToEnd {
		if m := b.EndToEnd[i]; m.Name != def.name || m.Unit != def.unit || m.Better != def.better || m.Bound != def.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, harness %+v", i, m, def)
		}
	}
	for i, def := range perLayer {
		if m := b.PerLayer[i]; m.Name != def.name || m.Unit != def.unit || m.Better != def.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, harness %+v", i, m, def)
		}
	}
}

// TestWorkloadsSmoke runs every workload at toy size, one untraced and
// one traced repetition: nothing fails, the metric names printed are exactly
// BENCHMARK.json's, no end-to-end metric reads zero, and the span tree is
// well formed.
func TestWorkloadsSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			// One traced run: an untraced and a traced repetition, from
			// which both tables are built.
			h := toyHarness(t, sp.name)
			spans := filepath.Join(t.TempDir(), "spans.json")
			rp, err := h.run(0, true, spans)
			if err != nil {
				t.Fatal(err)
			}
			if !rp.Correct || rp.Failed != 0 {
				t.Fatalf("run failed: %v", rp.Failures)
			}
			if len(rp.Metrics) != len(b.PerLayer) {
				t.Errorf("traced run printed %d metrics, want %d", len(rp.Metrics), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				if _, ok := rp.Metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
			rp = h.report(false)
			if len(rp.Metrics) != len(b.EndToEnd) {
				t.Errorf("untraced report printed %d metrics, want %d", len(rp.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				if v, ok := rp.Metrics[m.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s reads %v (present %v)", m.Name, v, ok)
				}
			}
			checkSpanTree(t, spans)
		})
	}
}

// checkSpanTree asserts the written spans form one tree per traced
// repetition: a single root, every other span closed, pointing at an
// earlier span of the same repetition, and lying inside its parent.
func checkSpanTree(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	roots := map[int]int{}
	for i, s := range spans {
		if s.ID != i || s.End < s.Start {
			t.Fatalf("span %d (%s): id %d, interval [%d,%d]", i, s.Name, s.ID, s.Start, s.End)
		}
		if s.Parent < 0 {
			roots[s.Rep]++
			if s.Name != "rep" {
				t.Errorf("root span %d is %q, want rep", i, s.Name)
			}
			continue
		}
		if s.Parent >= i {
			t.Fatalf("span %d (%s) has parent %d", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if p.Rep != s.Rep || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%s) [%d,%d] rep %d is outside its parent %s [%d,%d] rep %d",
				i, s.Name, s.Start, s.End, s.Rep, p.Name, p.Start, p.End, p.Rep)
		}
	}
	if len(roots) == 0 {
		t.Fatal("no spans recorded")
	}
	for rep, n := range roots {
		if n != 1 {
			t.Errorf("repetition %d has %d root spans", rep, n)
		}
	}
}

// TestWrongAnswerFails: a checker that expects the opposite answer must
// fail the run with failed > 0.
func TestWrongAnswerFails(t *testing.T) {
	h := toyHarness(t, "serve-live")
	h.corruptDNS = true
	rp, err := h.run(0, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if rp.Correct || rp.Failed == 0 {
		t.Fatalf("run with a falsified DNS checker reported correct=%v failed=%d", rp.Correct, rp.Failed)
	}
}

// TestRecordsMismatchFails: repetitions whose records differ must fail
// the run.
func TestRecordsMismatchFails(t *testing.T) {
	h := toyHarness(t, "timeline")
	h.corruptRecords = true
	rp, err := h.run(0, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if rp.Correct || rp.Failed == 0 {
		t.Fatalf("run with perturbed records reported correct=%v failed=%d", rp.Correct, rp.Failed)
	}
}

// testBlock publishes a small snapshot and prepares a query block
// against it.
func testBlock(t *testing.T, n int) (*serve.DNSResponder, *queryBlock) {
	t.Helper()
	r := rng.NewStream(7, "memconn-test")
	members := ip6.NewShardedSet()
	for i := 0; i < 500; i++ {
		members.Add(ip6.AddrFromUint64s(0x2001_0db8_0000_0000|r.Uint64()&0xffff, r.Uint64()))
	}
	var perProto [netmodel.NumProtocols]*ip6.SortedShardSet
	perProto[netmodel.ICMP] = ip6.FreezeSorted(members)
	h := serve.NewHandle()
	h.Publish(serve.NewSnapshot(100, ip6.FreezeSorted(members), perProto,
		[]ip6.Prefix{ip6.MustParsePrefix("2001:db8:ffff::/48")}, nil))
	responder := serve.NewDNSResponder(h, benchZone)
	tmpl, err := newQueryTemplates(responder)
	if err != nil {
		t.Fatal(err)
	}
	return responder, newQueryBlock(r, h.Current(), tmpl, datasets, n)
}

// TestMemConnContract: ServeUDP over the in-memory conn hands out every
// prepared wire once per cycle with the query's number as TxID, every
// reply is checked against the truth, and after the last query ReadFrom
// reports net.ErrClosed so the loop returns nil.
func TestMemConnContract(t *testing.T) {
	responder, b := testBlock(t, 640)
	hits := 0
	for _, w := range b.want {
		if w.hit {
			hits++
		}
	}
	if hits == 0 || hits == len(b.want) {
		t.Fatalf("block has %d hits of %d queries; want a mix", hits, len(b.want))
	}
	total := 2*len(b.wires) + 5 // two cycles and a partial one
	res, err := runDNS(responder, b, total, false)
	if err != nil {
		t.Fatalf("ServeUDP did not return nil after the last query: %v", err)
	}
	if res.queries != total || res.wrong != 0 {
		t.Fatalf("%d queries, %d wrong (%s); want %d, 0", res.queries, res.wrong, res.detail, total)
	}

	// The same block against a checker expecting the opposite answers:
	// every reply is wrong.
	res, err = runDNS(responder, b, total, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.wrong != total {
		t.Fatalf("falsified checker flagged %d of %d replies", res.wrong, total)
	}

	// A reply to the wrong query (TxID off by one) is caught.
	c := &memConn{wires: b.wires, want: b.want, total: 1}
	buf := make([]byte, 512)
	n, _, err := c.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	var sc serve.Scratch
	reply := responder.Respond(buf[:n], nil, &sc)
	reply[1]++
	if _, err := c.WriteTo(reply, memAddr{}); err != nil {
		t.Fatal(err)
	}
	if c.wrong != 1 {
		t.Fatalf("reply with a foreign TxID passed the checker")
	}
}

// TestLatencySampler: one query in sampleEvery is timed, starting with
// the first.
func TestLatencySampler(t *testing.T) {
	responder, b := testBlock(t, 64)
	for _, total := range []int{1, 16, 17, 1000} {
		res, err := runDNS(responder, b, total, false)
		if err != nil {
			t.Fatal(err)
		}
		want := (total + sampleEvery - 1) / sampleEvery
		if len(res.samples) != want {
			t.Errorf("%d queries gave %d latency samples, want %d", total, len(res.samples), want)
		}
		for _, ns := range res.samples {
			if ns < 0 {
				t.Errorf("negative service time %v", ns)
			}
		}
	}
}

// TestSelfTime: self time subtracts the union of the children, so
// overlapping children are not counted twice and a child is clipped to
// its parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60}, // overlaps span 1 by 10
		{ID: 3, Parent: 1, Start: 10, End: 20},
	}
	self := selfNS(spans)
	for i, want := range []int64{50, 20, 30, 10} {
		if self[i] != want {
			t.Errorf("span %d self time %d, want %d", i, self[i], want)
		}
	}
}

// TestSpreadMatchesDriver: the quartiles are statistics.quantiles(n=4)'s
// (exclusive method): for 1..10 they are 2.75 and 8.25.
func TestSpreadMatchesDriver(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread %v, want %v", got, want)
	}
}

// TestCompareVerdicts pins the three outcomes of -compare.
func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{name: "t", unit: "s", better: "lower", bound: 0.10}
	higher := metricDef{name: "q", unit: "1/s", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{80, 100, 120, 90, 110}
	cases := []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, steady, []float64{115, 114, 116, 115, 115}, "worse"},
		{lower, steady, []float64{50, 51, 49, 50, 50}, "ok"},
		{higher, steady, []float64{85, 84, 86, 85, 85}, "worse"},
		{higher, steady, []float64{130, 131, 129, 130, 130}, "ok"},
		{lower, noisy, noisy, "unresolved"},
		{lower, noisy, []float64{60, 61, 59, 60, 60}, "ok"}, // every run of B beats every run of A
	}
	for i, c := range cases {
		if _, _, got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}
