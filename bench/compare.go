package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// readReports loads the untraced reports of one -out file, by workload.
func readReports(path string) (map[string][]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rp := &report{}
		if err := json.Unmarshal(sc.Bytes(), rp); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rp.Trace {
			out[rp.Workload] = append(out[rp.Workload], rp)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a share
// of the median — what the bounds are judged against. The quartiles are
// those of Python's statistics.quantiles(xs, n=4), the driver's rule.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 || median(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(xs)
}

// verdict applies one metric's bound to two samples of runs. B is worse
// when its median is worse than A's by more than the bound; where either
// side's own spread is wider than the bound the pair is unresolved, not
// unchanged, unless every run of B reads better than every run of A.
func verdict(def metricDef, a, b []float64) (change, spr float64, v string) {
	sign := 1.0 // orient so that a positive change is a worsening
	if def.better == "higher" {
		sign = -1
	}
	if ma := median(a); ma != 0 {
		change = sign * (median(b) - ma) / ma
	}
	spr = max(spread(a), spread(b))
	allBetter := quantile(b, 1) < quantile(a, 0)
	if sign < 0 {
		allBetter = quantile(b, 0) > quantile(a, 1)
	}
	switch {
	case spr > def.bound && !allBetter:
		return change, spr, "unresolved"
	case spr <= def.bound && change > def.bound:
		return change, spr, "worse"
	}
	return change, spr, "ok"
}

// compareFiles prints one row per workload and end-to-end metric of two
// -out files and reports whether any row is worse. Runs of one seed on
// both sides must also agree exactly on their record hash and probe
// total.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tchange\tspread\tbound\tverdict")
	for _, sp := range specs {
		ra, rb := a[sp.name], b[sp.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, def := range endToEnd {
			var xa, xb []float64
			for _, rp := range ra {
				xa = append(xa, rp.Metrics[def.name])
			}
			for _, rp := range rb {
				xb = append(xb, rp.Metrics[def.name])
			}
			change, spr, v := verdict(def, xa, xb)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				sp.name, def.name, median(xa), median(xb), change*100, spr*100, def.bound*100, v)
		}
		exact := "ok"
		for _, x := range ra {
			for _, y := range rb {
				if x.Seed == y.Seed && (x.Hash != y.Hash || x.Probes != y.Probes) {
					exact, worse = "worse", true
				}
			}
		}
		fmt.Fprintf(tw, "%s\trecords_sha256+probes_total\t\t\t\t\texact\t%s\n", sp.name, exact)
	}
	return worse, tw.Flush()
}
