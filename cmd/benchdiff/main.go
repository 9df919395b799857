// Command benchdiff compares two `go test -bench` outputs — a committed
// baseline and a fresh run — and renders a benchstat-style delta table
// for ns/op, B/op and allocs/op, so performance regressions surface in
// CI logs and pull requests.
//
// Usage:
//
//	benchdiff [-threshold PCT] baseline.txt current.txt
//
// With -threshold >= 0, the exit status is non-zero when any benchmark's
// ns/op or B/op regresses by more than PCT percent — the CI gate mode,
// where the bench artifact diff fails loudly instead of only reporting.
// The default (-1) reports without failing.
//
// Benchmarks missing from the baseline are additions, not regressions:
// they are listed in the table, summarized as a warning on stderr, and
// never fail the gate — the reminder to refresh bench-baseline.txt, not
// a build breaker. Benchmarks missing from the current run are reported
// the same way (a deleted bench should also come with a baseline
// refresh).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

type row struct {
	ns, bytes, allocs float64
	hasNS, hasB, hasA bool
	// extras holds per-benchmark custom metrics (b.ReportMetric units
	// like qps, results/s or steals) keyed by unit. They are
	// informational: printed under the benchmark's row and summarized
	// with the geomean line, never gated on — custom units carry no
	// universal better/worse direction.
	extras map[string]float64
}

func parseBench(path string) (map[string]row, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	rows := make(map[string]row)
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Strip the -GOMAXPROCS suffix so runs from different machines
		// line up.
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := rows[name]
		if _, ok := rows[name]; !ok {
			order = append(order, name)
		}
		// fields[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.ns, r.hasNS = v, true
			case "B/op":
				r.bytes, r.hasB = v, true
			case "allocs/op":
				r.allocs, r.hasA = v, true
			default:
				if r.extras == nil {
					r.extras = make(map[string]float64)
				}
				r.extras[fields[i+1]] = v
			}
		}
		rows[name] = r
	}
	return rows, order, sc.Err()
}

func delta(base, cur float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur-base)/base)
}

func main() {
	threshold := flag.Float64("threshold", -1,
		"fail when ns/op or B/op regresses by more than this percentage (-1 = report only)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold PCT] baseline.txt current.txt")
		os.Exit(2)
	}
	base, _, err := parseBench(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	cur, order, err := parseBench(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-34s %26s %26s %26s\n", "benchmark", "ns/op (base→cur Δ)", "B/op (base→cur Δ)", "allocs/op (base→cur Δ)")
	failed := false
	var added []string
	// Geomean of the per-benchmark ns/op ratios: the one-line trajectory
	// summary (negative = faster overall) printed under the table.
	var logSum float64
	logN := 0
	// Per-unit geomeans of the custom metrics, reported alongside.
	extraLog := make(map[string]float64)
	extraN := make(map[string]int)
	for _, name := range order {
		c := cur[name]
		b, ok := base[name]
		if !ok {
			// Missing from the baseline: an addition, never a failure.
			added = append(added, name)
			fmt.Fprintf(w, "%-34s %26s\n", strings.TrimPrefix(name, "Benchmark"), "(new benchmark)")
			continue
		}
		cell := func(has bool, bv, cv float64) string {
			if !has {
				return "-"
			}
			return fmt.Sprintf("%.3g→%.3g %s", bv, cv, delta(bv, cv))
		}
		if b.hasNS && c.hasNS && b.ns > 0 && c.ns > 0 {
			logSum += math.Log(c.ns / b.ns)
			logN++
		}
		mark := ""
		if *threshold >= 0 && b.hasNS && c.hasNS && b.ns > 0 &&
			(100*(c.ns-b.ns)/b.ns > *threshold || (b.hasB && c.hasB && b.bytes > 0 && 100*(c.bytes-b.bytes)/b.bytes > *threshold)) {
			mark = "  <-- REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "%-34s %26s %26s %26s%s\n", strings.TrimPrefix(name, "Benchmark"),
			cell(b.hasNS && c.hasNS, b.ns, c.ns),
			cell(b.hasB && c.hasB, b.bytes, c.bytes),
			cell(b.hasA && c.hasA, b.allocs, c.allocs), mark)
		// Custom metrics ride along informationally under the row; a unit
		// present on only one side still prints, with "-" for the other.
		if len(b.extras) > 0 || len(c.extras) > 0 {
			units := make(map[string]bool)
			for u := range b.extras {
				units[u] = true
			}
			for u := range c.extras {
				units[u] = true
			}
			sorted := make([]string, 0, len(units))
			for u := range units {
				sorted = append(sorted, u)
			}
			sort.Strings(sorted)
			parts := make([]string, 0, len(sorted))
			for _, u := range sorted {
				bv, bok := b.extras[u]
				cv, cok := c.extras[u]
				switch {
				case bok && cok:
					parts = append(parts, fmt.Sprintf("%s %.3g→%.3g %s", u, bv, cv, delta(bv, cv)))
					if bv > 0 && cv > 0 {
						extraLog[u] += math.Log(cv / bv)
						extraN[u]++
					}
				case cok:
					parts = append(parts, fmt.Sprintf("%s -→%.3g", u, cv))
				default:
					parts = append(parts, fmt.Sprintf("%s %.3g→-", u, bv))
				}
			}
			fmt.Fprintf(w, "%-34s   metrics: %s\n", "", strings.Join(parts, ", "))
		}
	}
	var gone []string
	for name := range base {
		if _, ok := cur[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "%-34s %26s\n", strings.TrimPrefix(name, "Benchmark"), "(missing from current)")
	}
	if logN > 0 {
		summary := ""
		if len(extraN) > 0 {
			units := make([]string, 0, len(extraN))
			for u := range extraN {
				units = append(units, u)
			}
			sort.Strings(units)
			parts := make([]string, 0, len(units))
			for _, u := range units {
				parts = append(parts, fmt.Sprintf("%s %+.1f%%", u,
					100*(math.Exp(extraLog[u]/float64(extraN[u]))-1)))
			}
			summary = fmt.Sprintf("; metrics (informational): %s", strings.Join(parts, ", "))
		}
		fmt.Fprintf(w, "geomean ns/op delta: %+.1f%% across %d benchmark(s)%s\n",
			100*(math.Exp(logSum/float64(logN))-1), logN, summary)
	}
	if len(added) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: warning: %d benchmark(s) missing from the baseline (treated as additions, not failures): %s — refresh bench-baseline.txt\n",
			len(added), strings.Join(added, ", "))
	}
	if len(gone) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: warning: %d benchmark(s) missing from the current run: %s\n",
			len(gone), strings.Join(gone, ", "))
	}
	if failed {
		w.Flush()
		os.Exit(1)
	}
}
