// Command hitlist6 runs the IPv6 Hitlist service pipeline over the
// synthetic Internet for the full 2018-2022 schedule and streams one CSV
// row per scan to stdout (the Figure 3/4 series). With -membudget the
// cumulative pipeline sets (input seen, ever responsive, GFW evidence)
// spill to disk under the given resident budget, so history-sized state
// no longer scales with the run.
//
// The hl6 subcommand family manages .hl6 binary hitlist files (see
// internal/hlfile): `hl6 convert` turns CSV/text address lists into the
// sorted sharded binary format, `hl6 synth` generates synthetic ones,
// `hl6 info` prints a header summary.
//
// Usage:
//
//	hitlist6 -scale 0.002 -seed 42 > scans.csv
//	hitlist6 -membudget 64 -spill /tmp/hl6 > scans.csv
//	hitlist6 hl6 convert -in targets.txt -out targets.hl6
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"hitlist6/internal/core"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/worldgen"
	"hitlist6/internal/yarrp"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "hl6" {
		hl6Main(os.Args[2:])
		return
	}
	var (
		scale     = flag.Float64("scale", 1.0/500, "world scale relative to paper magnitudes")
		seed      = flag.Uint64("seed", 42, "world seed")
		stride    = flag.Int("stride", 1, "run every N-th scheduled scan")
		gfwDay    = flag.String("gfw-filter-from", "2022-02-07", "GFW filter deployment date (YYYY-MM-DD, 'never' disables)")
		memBudget = flag.Int("membudget", 0, "resident MiB budget for cumulative sets (0 = fully resident)")
		spillDir  = flag.String("spill", "", "spill directory (default: private temp dir)")
	)
	flag.Parse()

	wp := worldgen.TimelineParams(*seed)
	wp.Scale = *scale
	w, err := worldgen.Generate(wp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "generating world: %v\n", err)
		os.Exit(1)
	}
	tracer := yarrp.New(w.Net, yarrp.Config{Seed: *seed})
	feeds := w.BuildFeeds(tracer)

	cfg := core.DefaultConfig(*seed)
	cfg.GFWFilterFromDay = netmodel.Forever
	if *gfwDay != "never" {
		t, err := time.Parse("2006-01-02", *gfwDay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -gfw-filter-from: %v\n", err)
			os.Exit(2)
		}
		cfg.GFWFilterFromDay = netmodel.DayOf(t.Year(), t.Month(), t.Day())
	}
	cfg.MemoryBudget = int64(*memBudget) << 20
	cfg.SpillDir = *spillDir
	svc := core.NewService(cfg, w.Net, feeds, w.Blocklist)
	defer svc.Close()
	// os.Exit skips defers; die routes error exits through the spill
	// cleanup so a failed budgeted run leaves no scratch files behind.
	die := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format, a...)
		svc.Close()
		os.Exit(1)
	}

	out := csv.NewWriter(os.Stdout)
	defer out.Flush()
	header := []string{"date", "scanned", "new_input", "total_raw", "total_clean", "injected_dns",
		"first_resp", "resp_again", "unresp", "aliased_prefixes", "evicted"}
	for _, p := range netmodel.Protocols {
		header = append(header, "raw_"+p.String(), "clean_"+p.String())
	}
	if err := out.Write(header); err != nil {
		die("writing header: %v\n", err)
	}

	ctx := context.Background()
	for i := 0; i < len(w.ScanDays); i += *stride {
		rec, err := svc.RunScan(ctx, w.ScanDays[i])
		if err != nil {
			die("scan at day %d: %v\n", w.ScanDays[i], err)
		}
		row := []string{
			netmodel.DateString(rec.Day),
			strconv.Itoa(rec.ScannedTargets),
			strconv.Itoa(rec.NewInput),
			strconv.Itoa(rec.TotalRaw),
			strconv.Itoa(rec.TotalClean),
			strconv.Itoa(rec.InjectedDNS),
			strconv.Itoa(rec.FirstResp),
			strconv.Itoa(rec.RespAgain),
			strconv.Itoa(rec.Unresp),
			strconv.Itoa(rec.AliasedPrefixes),
			strconv.Itoa(rec.Evicted),
		}
		for _, p := range netmodel.Protocols {
			row = append(row, strconv.Itoa(rec.ResponsiveRaw[p]), strconv.Itoa(rec.ResponsiveClean[p]))
		}
		if err := out.Write(row); err != nil {
			die("writing row: %v\n", err)
		}
		out.Flush()
	}

	f := svc.Funnel()
	fmt.Fprintf(os.Stderr, "funnel: input=%d blocked=%d gfw=%d aliased=%d evicted=%d active=%d responsive=%d\n",
		f.Input, f.Blocked, f.GFWFiltered, f.AliasedInput, f.Evicted, f.ActiveScan, f.Responsive)
	if *memBudget > 0 {
		fmt.Fprintf(os.Stderr, "spill: budget=%dMiB runs-frozen=%d\n", *memBudget, svc.SpilledRuns())
	}
}
