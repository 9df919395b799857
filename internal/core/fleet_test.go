package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"hitlist6/internal/scan"
)

// fleetTinyRun is refTinyRun with the main scan on FleetWorkers workers.
func fleetTinyRun(t testing.TB, workers int, hook scan.FaultHook) ([]*ScanRecord, map[int]*Snapshot, *Service) {
	t.Helper()
	n, feeds := tinyWorld(t)
	cfg := DefaultConfig(1)
	cfg.GFWFilterFromDay = 150
	cfg.SnapshotDays = []int{14, 70, 180}
	cfg.FleetWorkers = workers
	cfg.FleetFaultHook = hook
	s := NewService(cfg, n, feeds, nil)
	runDays(t, s, weekly(0, 196))
	return s.Records(), s.Snapshots(), s
}

// TestFleetServiceMatchesReference pins worker-count invariance at the
// service level: records and snapshots are bit-identical to the goldens
// for several FleetWorkers counts, with the previous scan's shard
// profile actively steering the hand-out from the second scan on.
func TestFleetServiceMatchesReference(t *testing.T) {
	for _, workers := range []int{2, 4} {
		recs, snaps, s := fleetTinyRun(t, workers, nil)
		compareGolden(t, "reference_tiny.json", goldenFrom(recs, snaps), fmt.Sprintf("fleet workers=%d", workers))
		res := s.LastFleet()
		if len(res.Workers) != workers {
			t.Fatalf("fleet workers=%d: LastFleet reports %d workers", workers, len(res.Workers))
		}
		shards := 0
		for _, ws := range res.Workers {
			shards += ws.Shards
		}
		if shards == 0 {
			t.Fatalf("fleet workers=%d: no shards attributed to any worker", workers)
		}
	}
}

// TestFleetServiceSurvivesWorkerDeath injects one worker death (first
// batch fault point of the whole run, i.e. mid-first-scan) and expects
// the re-issued shards to leave the goldens untouched.
func TestFleetServiceSurvivesWorkerDeath(t *testing.T) {
	var killed atomic.Bool
	hook := func(p scan.FaultPoint) error {
		if p.Batch >= 0 && killed.CompareAndSwap(false, true) {
			return scan.ErrWorkerKilled
		}
		return nil
	}
	recs, snaps, _ := fleetTinyRun(t, 4, hook)
	if !killed.Load() {
		t.Fatal("fault hook never fired")
	}
	compareGolden(t, "reference_tiny.json", goldenFrom(recs, snaps), "fleet with worker death")
}

// TestFleetFaultHookNeedsNoFleetWorkers: the hook is honoured whenever
// it is set, not only beside FleetWorkers > 1 — a single worker that
// dies is the engine's loud no-survivors failure, not a silent pass.
func TestFleetFaultHookNeedsNoFleetWorkers(t *testing.T) {
	n, feeds := tinyWorld(t)
	cfg := DefaultConfig(1)
	cfg.ScanWorkers = 1
	cfg.FleetFaultHook = func(scan.FaultPoint) error { return scan.ErrWorkerKilled }
	s := NewService(cfg, n, feeds, nil)
	if _, err := s.RunScan(context.Background(), 0); err == nil {
		t.Fatal("scan succeeded with its only worker killed")
	}
}
