// Package experiments regenerates every table and figure of the paper's
// evaluation from the synthetic world: the pipeline funnel (Fig. 1), input
// and responsiveness distributions (Figs. 2, 8, 9), the published-vs-
// cleaned timeline (Fig. 3), churn (Fig. 4), aliased-prefix analyses
// (Figs. 5, 6; Table 2), source evaluations (Tables 3, 4; Figs. 7, 8), the
// GFW accounting (Table 5), and the in-text experiments (DNS behaviour,
// fingerprints/TBT, domains, EUI-64) plus ablations.
//
// All experiments share one Suite: a single four-year service run whose
// records, snapshots and state feed every artifact, exactly like the
// paper's data pipeline.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"hitlist6/internal/core"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/worldgen"
	"hitlist6/internal/yarrp"
)

// Params sizes a suite run.
type Params struct {
	Seed uint64
	// Scale is the world scale (paper magnitudes × Scale).
	Scale float64
	// TailASes is the synthetic AS tail size.
	TailASes int
	// ScanStride runs every N-th scheduled scan (1 = full schedule);
	// larger strides trade fidelity for speed in tests and benchmarks.
	ScanStride int
}

// QuickParams is a reduced configuration for tests and benchmarks.
func QuickParams(seed uint64) Params {
	return Params{Seed: seed, Scale: 1.0 / 10000, TailASes: 48, ScanStride: 4}
}

// Suite lazily runs the service once and derives every artifact from it.
type Suite struct {
	P Params

	once sync.Once
	err  error

	World *worldgen.World
	Svc   *core.Service

	// SnapDec2021 is the extra snapshot used as the TGA seed set.
	SnapDec2021 int

	nsOnce sync.Once
	nsErr  error
	nsRes  *NewSourcesResult
}

// NewSuite builds a lazy suite.
func NewSuite(p Params) *Suite {
	if p.ScanStride <= 0 {
		p.ScanStride = 1
	}
	return &Suite{P: p, SnapDec2021: netmodel.DayOf(2021, 12, 1)}
}

// Run generates the world and executes the full service timeline.
func (s *Suite) Run(ctx context.Context) error {
	s.once.Do(func() { s.err = s.run(ctx) })
	return s.err
}

func (s *Suite) run(ctx context.Context) error {
	wp := worldgen.Params{
		Seed:             s.P.Seed,
		Scale:            s.P.Scale,
		TailASes:         s.P.TailASes,
		ScanIntervalDays: 7,
	}
	w, err := worldgen.Generate(wp)
	if err != nil {
		return fmt.Errorf("experiments: generating world: %w", err)
	}
	s.World = w

	tracer := yarrp.New(w.Net, yarrp.Config{Seed: s.P.Seed})
	feeds := w.BuildFeeds(tracer)

	cfg := core.DefaultConfig(s.P.Seed)
	cfg.GFWFilterFromDay = worldgen.GFWFilterDeployDay
	cfg.RetainUnresponsive = true
	cfg.SnapshotDays = append(w.SnapshotDays(), s.SnapDec2021)
	sort.Ints(cfg.SnapshotDays)
	s.Svc = core.NewService(cfg, w.Net, feeds, w.Blocklist)

	for i := 0; i < len(w.ScanDays); i += s.P.ScanStride {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := s.Svc.RunScan(ctx, w.ScanDays[i]); err != nil {
			return fmt.Errorf("experiments: scan %d: %w", i, err)
		}
	}
	// Always finish on the evaluation end day.
	if last := w.ScanDays[len(w.ScanDays)-1]; s.lastScanDay() != last {
		if _, err := s.Svc.RunScan(ctx, last); err != nil {
			return fmt.Errorf("experiments: final scan: %w", err)
		}
	}
	return nil
}

func (s *Suite) lastScanDay() int {
	recs := s.Svc.Records()
	if len(recs) == 0 {
		return -1
	}
	return recs[len(recs)-1].Day
}

// snapshotFor returns the snapshot captured for a requested day.
func (s *Suite) snapshotFor(day int) (*core.Snapshot, error) {
	snap, ok := s.Svc.Snapshots()[day]
	if !ok {
		return nil, fmt.Errorf("experiments: no snapshot for day %d (%s)", day, netmodel.DateString(day))
	}
	return snap, nil
}

// aliasedExclTrafficforce returns the final aliased prefixes without the
// Trafficforce event, as several analyses require.
func (s *Suite) aliasedExclTrafficforce() []ip6.Prefix {
	var out []ip6.Prefix
	tf := s.World.Net.AS.ByASN(worldgen.ASNTrafficforce)
	for _, p := range s.Svc.AliasedPrefixes().Prefixes() {
		if as := s.World.Net.AS.Lookup(p.Addr()); as != nil && tf != nil && as.ASN == tf.ASN {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Runner is one experiment.
type Runner struct {
	Name  string
	About string
	Run   func(ctx context.Context, s *Suite, w io.Writer) error
}

// All lists every experiment in presentation order.
func All() []Runner {
	return []Runner{
		{"fig1", "pipeline funnel", Figure1},
		{"fig2", "input distribution across ASes (CDF)", Figure2},
		{"fig3", "responsive addresses over time, published vs cleaned", Figure3},
		{"fig4", "churn per scan", Figure4},
		{"fig5", "aliased prefix length CDF per year", Figure5},
		{"fig6", "aliased address share per AS (heatmap)", Figure6},
		{"fig7", "overlap between new sources", Figure7},
		{"fig8", "AS distribution of new-source responsive addresses", Figure8},
		{"fig9", "AS distribution per protocol", Figure9},
		{"fig10", "protocol overlap", Figure10},
		{"table1", "responsive addresses and ASes per year", Table1},
		{"table2", "responsiveness of aliased prefixes", Table2},
		{"table3", "new input sources", Table3},
		{"table4", "responsive addresses per new source", Table4},
		{"table5", "top ASes impacted by the GFW", Table5},
		{"dnseval", "behaviour of remaining DNS responders (Sec. 4.2)", DNSEval},
		{"fingerprints", "TCP fingerprints and Too Big Trick (Sec. 5.1)", Fingerprints},
		{"domains", "domains hosted in aliased prefixes (Sec. 5.2)", Domains},
		{"eui64", "EUI-64 composition of the input (Sec. 4.1)", EUI64},
		{"ablations", "design-choice ablations", Ablations},
		{"shardbal", "scan-engine shard balance (per-shard probes and probe time)", ShardBalance},
		{"serve", "hitlist-as-a-service: query consistency while the timeline advances", ServeWhileScanning},
	}
}

// ByName returns the named experiment.
func ByName(name string) (Runner, bool) {
	for _, r := range All() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}
