package main

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"hitlist6/internal/core"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/worldgen"
	"hitlist6/internal/yarrp"
)

// timelineMain is -timeline mode: the full service pipeline over the
// scheduled scan days, one CSV row per scan (the exact rows hitlist6
// emits), with optional durability. With -ckpt the service checkpoints
// after every -ckptevery scans; -resume restarts from the last finalized
// checkpoint, re-emits the CSV rows of every completed scan, and
// continues the schedule — so a run SIGKILLed anywhere and resumed
// produces byte-identical CSV to an uninterrupted one (the CI
// kill-and-resume job diffs them with cmp).
// prof's CPU profile starts after world generation and spans the resume
// and every scan; its heap profile is taken after the last scan. With a
// profile asked for, SIGINT/SIGTERM ends the timeline after the scan in
// flight, writes both profiles and exits 1.
func timelineMain(scale float64, seed uint64, stride int, ckptDir string, ckptEvery, ckptFull int, resume bool, pause time.Duration, prof *profiles) {
	if resume && ckptDir == "" {
		fmt.Fprintln(os.Stderr, "-resume needs -ckpt")
		os.Exit(2)
	}
	if stride < 1 {
		stride = 1
	}

	wp := worldgen.TimelineParams(seed)
	wp.Scale = scale
	w, err := worldgen.Generate(wp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "generating world: %v\n", err)
		os.Exit(1)
	}
	feeds := w.BuildFeeds(yarrp.New(w.Net, yarrp.Config{Seed: seed}))
	if err := prof.start(); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	defer prof.stopCPU()

	cfg := core.DefaultConfig(seed)
	cfg.GFWFilterFromDay = netmodel.DayOf(2022, time.February, 7)
	cfg.CheckpointDir = ckptDir
	cfg.CheckpointEvery = ckptEvery
	cfg.CheckpointFullEvery = ckptFull

	var svc *core.Service
	if resume {
		svc, err = core.Resume(ckptDir, cfg, w.Net, feeds, w.Blocklist)
		if errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "no checkpoint at %s, starting fresh\n", ckptDir)
			svc = nil
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "resuming: %v\n", err)
			prof.stopCPU()
			os.Exit(1)
		} else {
			fmt.Fprintf(os.Stderr, "resumed from %s: %d scans completed\n", ckptDir, len(svc.Records()))
		}
	}
	if svc == nil {
		svc = core.NewService(cfg, w.Net, feeds, w.Blocklist)
	}
	defer svc.Close()
	die := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format, a...)
		svc.Close()
		prof.stopCPU()
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

	writeRow := func(rec *core.ScanRecord) {
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

	// Re-emit the rows of every scan the checkpoint already completed:
	// the resumed run's CSV is the full series, byte-identical to an
	// uninterrupted run's (the interrupted run's partial output is
	// discarded by the caller).
	for _, rec := range svc.Records() {
		writeRow(rec)
	}

	ctx := context.Background()
	if prof.cpuPath != "" || prof.memPath != "" {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	for i := len(svc.Records()) * stride; i < len(w.ScanDays) && ctx.Err() == nil; i += stride {
		rec, err := svc.RunScan(ctx, w.ScanDays[i])
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			die("scan at day %d: %v\n", w.ScanDays[i], err)
		}
		writeRow(rec)
		if pause > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(pause):
			}
		}
	}
	prof.writeHeap()
	if ctx.Err() != nil {
		die("interrupted after %d scans\n", len(svc.Records()))
	}

	f := svc.Funnel()
	fmt.Fprintf(os.Stderr, "funnel: input=%d blocked=%d gfw=%d aliased=%d evicted=%d active=%d responsive=%d\n",
		f.Input, f.Blocked, f.GFWFiltered, f.AliasedInput, f.Evicted, f.ActiveScan, f.Responsive)
}
