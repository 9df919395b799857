// Command bench is the repository's benchmark: six workloads over the
// hitlist service, twelve end-to-end metrics with regression bounds, and
// — in a separate traced run — a per-layer table measured from outside
// every layer. See README.md in this directory.
//
//	go run ./bench --workload timeline --seed 42 --seconds 8 --trace 0
//	go run ./bench --compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the human-readable table goes to
// standard error. The exit code is non-zero when any operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last stdout line.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 42, "seed of the world, the service, the tracer and the query mix")
		seconds  = flag.Float64("seconds", 8, "measured work to accumulate before the run stops repeating")
		trace    = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
		out      = flag.String("out", "", "append the run's full report as one JSON line to this file")
		spans    = flag.String("spans", "", "where a traced run writes its spans (default <scratch>/spans-<workload>.json)")
		scratch  = flag.String("scratch", ".bench_build", "directory for checkpoints, spill files and the served .hl6; emptied of this run's files at exit")
		compare  = flag.Bool("compare", false, "compare two -out files (A B): ok / worse / unresolved per workload and metric")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench --compare A.jsonl B.jsonl")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	sp, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *spans == "" {
		*spans = filepath.Join(*scratch, "spans-"+sp.name+".json")
	}

	h, err := newHarness(sp, *seed, *scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	rp, err := h.run(*seconds, *trace == 1, *spans)
	printTable(os.Stderr, rp)
	if *out != "" {
		if werr := appendReport(*out, rp); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		// A run that could not finish prints no result line.
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line := resultLine{Correct: rp.Correct, Attempted: rp.Attempted, Failed: rp.Failed, Metrics: map[string]value{}}
	for _, def := range rp.defs() {
		line.Metrics[def.name] = value{Value: rp.Metrics[def.name], Unit: def.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
	if !rp.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return names
}

// defs are the metrics the report carries: per-layer for a traced run,
// end-to-end otherwise.
func (rp *report) defs() []metricDef {
	if rp.Trace {
		return perLayer
	}
	return endToEnd
}

// printTable prints every metric by name with unit, sample count and
// bound, ops and failures beside them.
func printTable(w *os.File, rp *report) {
	fmt.Fprintf(w, "workload %s seed %d trace %v reps %d GOMAXPROCS %d: ops %d failed %d\n",
		rp.Workload, rp.Seed, rp.Trace, rp.Reps, rp.GOMAXPROCS, rp.Attempted, rp.Failed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, def := range rp.defs() {
		bound := ""
		if def.bound > 0 {
			bound = fmt.Sprintf("bound %.0f%%", def.bound*100)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\tn=%d\t%s\n", def.name, rp.Metrics[def.name], def.unit, rp.Samples[def.name], bound)
	}
	for name, v := range rp.Extra {
		fmt.Fprintf(tw, "  (%s)\t%.6g\t\t\tnot gated\n", name, v)
	}
	tw.Flush()
	for _, f := range rp.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}

// appendReport appends the report as one JSON line.
func appendReport(path string, rp *report) error {
	data, err := json.Marshal(rp)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
