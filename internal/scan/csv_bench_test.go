package scan

import (
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"hitlist6/internal/netmodel"
)

// slowDisk simulates a saturated log disk: every underlying write call
// stalls before completing. The CSV writer's bufio layer batches rows,
// so the stall hits roughly once per few KB — the shape of a real slow
// consumer.
type slowDisk struct{ delay time.Duration }

func (d slowDisk) Write(p []byte) (int, error) {
	time.Sleep(d.delay)
	return len(p), nil
}

// BenchmarkCSVSlowSink is the ROADMAP's slow-disk CSV scenario: stream a
// scan into the CSV writer over a stalling disk, with the sink inline on
// the probe workers versus decoupled behind the bounded delivery queue
// (Config.SinkQueueDepth). When the disk is the strict bottleneck both
// variants converge to disk speed — the backpressure invariant: probe
// workers throttle to the consumer without deadlock or unbounded
// buffering (the queued variant buffers at most depth batches, visible
// as its slightly higher B/op). The queued variant's win is structural:
// the sink mutex is uncontended because one goroutine delivers, and
// probing overlaps the stalls instead of workers queuing on the lock.
func BenchmarkCSVSlowSink(b *testing.B) {
	n := testNet(b)
	targets := streamTargets(2000)
	protos := []netmodel.Protocol{netmodel.ICMP, netmodel.TCP80}
	for _, bench := range []struct {
		name  string
		depth int
	}{
		{"inline", 0},
		{"queued8", 8},
	} {
		b.Run(bench.name, func(b *testing.B) {
			cfg := DefaultConfig(5)
			cfg.Workers = 4
			cfg.BatchSize = 64
			cfg.SinkQueueDepth = bench.depth
			s := New(n, cfg)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := NewWriter(io.Writer(slowDisk{delay: 200 * time.Microsecond}))
				if err != nil {
					b.Fatal(err)
				}
				// The CSV writer is not concurrency-safe: the inline
				// variant serializes sink calls from all probe workers
				// through this mutex (stalling them on the disk), the
				// queued variant leaves it uncontended on the single
				// delivery goroutine.
				var mu sync.Mutex
				_, err = s.StreamFrom(context.Background(), SliceSource(targets), protos, 3, func(batch *Batch) error {
					mu.Lock()
					defer mu.Unlock()
					for _, r := range batch.Results {
						if err := out.Write(r); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := out.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
