package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hitlist6/internal/ckpt"
	"hitlist6/internal/hlfile"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
)

// hl6Main dispatches the `hitlist6 hl6` subcommands — the .hl6 binary
// hitlist toolbox:
//
//	hitlist6 hl6 convert -in targets.txt -out targets.hl6   # CSV/text → .hl6
//	hitlist6 hl6 synth -n 2000000 -out big.hl6              # synthetic file
//	hitlist6 hl6 info targets.hl6                            # header summary
//	hitlist6 hl6 sample -n 500 -miss 500 big.hl6             # query workload
//	hitlist6 hl6 check -in addrs.txt big.hl6                 # offline truth
//
// convert reads one address per line (or per CSV row; -col picks the
// column), streams it through the bounded-memory writer, and emits the
// sorted sharded binary file zmap6sim -hitlist and sources.HitlistFile
// scan without materialization. sample and check are the serve smoke
// pair: sample draws a deterministic mixed member/non-member workload,
// check answers it offline in the exact "addr,live" shape
// `hitlist6serve query` prints, so the two outputs diff byte for byte.
func hl6Main(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: hitlist6 hl6 convert|synth|info|sample|check ...")
		os.Exit(2)
	}
	switch args[0] {
	case "convert":
		hl6Convert(args[1:])
	case "synth":
		hl6Synth(args[1:])
	case "info":
		hl6Info(args[1:])
	case "sample":
		hl6Sample(args[1:])
	case "check":
		hl6Check(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "unknown hl6 subcommand %q (want convert, synth, info, sample or check)\n", args[0])
		os.Exit(2)
	}
}

func hl6Convert(args []string) {
	fs := flag.NewFlagSet("hl6 convert", flag.ExitOnError)
	var (
		in     = fs.String("in", "", "input file, one address per line or CSV ('-' = stdin)")
		out    = fs.String("out", "", "output .hl6 path")
		col    = fs.Int("col", 0, "CSV column holding the address (0-based)")
		budget = fs.Int("budget", hlfile.DefaultWriterBudget, "resident address budget of the writer")
		strict = fs.Bool("strict", false, "fail on unparsable lines instead of skipping them")
	)
	fs.Parse(args)
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "hl6 convert needs -in and -out")
		os.Exit(2)
	}

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	w, err := hlfile.NewWriterBudget(*out, *budget)
	if err != nil {
		fatal(err)
	}
	// fatal skips defers (os.Exit); abort the writer by hand so a failed
	// conversion never strands the scratch run file next to the output.
	fail := func(err error) {
		w.Abort()
		fatal(err)
	}

	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var total, skipped int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.IndexByte(line, ','); i >= 0 {
			fields := strings.Split(line, ",")
			if *col >= len(fields) {
				if *strict {
					fail(fmt.Errorf("line %q has no column %d", line, *col))
				}
				skipped++
				continue
			}
			line = strings.TrimSpace(fields[*col])
		}
		a, err := ip6.ParseAddr(line)
		if err != nil {
			if *strict {
				fail(err)
			}
			skipped++
			continue
		}
		if err := w.Add(a); err != nil {
			fail(err)
		}
		total++
	}
	if err := sc.Err(); err != nil {
		fail(err)
	}
	if err := w.Finish(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "hl6 convert: %d addresses in, %d skipped → %s\n", total, skipped, *out)
}

// hl6Synth writes a deterministic synthetic hitlist — the quick way to
// produce a multi-million-address .hl6 for smoke tests and benchmarks
// without a source list.
func hl6Synth(args []string) {
	fs := flag.NewFlagSet("hl6 synth", flag.ExitOnError)
	var (
		n      = fs.Int("n", 1_000_000, "addresses to generate")
		out    = fs.String("out", "", "output .hl6 path")
		seed   = fs.Uint64("seed", 42, "generator seed")
		budget = fs.Int("budget", hlfile.DefaultWriterBudget, "resident address budget of the writer")
	)
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, "hl6 synth needs -out")
		os.Exit(2)
	}
	w, err := hlfile.NewWriterBudget(*out, *budget)
	if err != nil {
		fatal(err)
	}
	// Cluster the draws under 2001::/16-ish prefixes so the file looks
	// like a hitlist (shared routed prefixes, varied IIDs), not noise.
	r := rng.NewStream(*seed, "hl6-synth")
	for i := 0; i < *n; i++ {
		hi := 0x2001_0000_0000_0000 | r.Uint64()&0x0fff_ffff_0000 | r.Uint64()&0xffff
		lo := r.Uint64() >> (r.Uint64() % 48)
		if err := w.Add(ip6.AddrFromUint64s(hi, lo)); err != nil {
			w.Abort()
			fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "hl6 synth: %d draws → %s (%d bytes)\n", *n, *out, st.Size())
}

func hl6Info(args []string) {
	fs := flag.NewFlagSet("hl6 info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hitlist6 hl6 info file.hl6|checkpoint-dir")
		os.Exit(2)
	}
	if st, err := os.Stat(fs.Arg(0)); err == nil && st.IsDir() {
		ckptInfo(fs.Arg(0))
		return
	}
	r, err := hlfile.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	minLen, maxLen, nonEmpty := -1, 0, 0
	for sh := 0; sh < ip6.AddrShards; sh++ {
		n := r.ShardLen(sh)
		if n > 0 {
			nonEmpty++
		}
		if minLen < 0 || n < minLen {
			minLen = n
		}
		if n > maxLen {
			maxLen = n
		}
	}
	fmt.Printf("addresses:       %d\n", r.Len())
	fmt.Printf("shards:          %d (%d non-empty)\n", ip6.AddrShards, nonEmpty)
	fmt.Printf("shard sizes:     min=%d max=%d\n", minLen, maxLen)
	fmt.Printf("mmap:            %v\n", r.Mapped())
}

// ckptInfo prints a checkpoint directory's manifest: scan cursor, serve
// generation, the segment's size, every payload with its offset in the
// segment, size, item count and [append] tag, the delta chain level by
// level with each level's bytes (when the head is a delta checkpoint).
func ckptInfo(dir string) {
	resolved, err := ckpt.Resolve(dir)
	if err != nil {
		fatal(err)
	}
	m, err := ckpt.ReadManifest(resolved)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("checkpoint:      %s\n", resolved)
	if resolved != dir {
		fmt.Printf("note:            resolved to a fallback directory (crash window mid-commit)\n")
	}
	lastDay := "none"
	if m.LastDay >= 0 {
		lastDay = fmt.Sprintf("%d (%s)", m.LastDay, netmodel.DateString(m.LastDay))
	}
	fmt.Printf("scans completed: %d\n", m.ScanIndex)
	fmt.Printf("last scan day:   %s\n", lastDay)
	fmt.Printf("generation:      %d\n", m.Generation)
	if st, err := os.Stat(filepath.Join(resolved, ckpt.SegmentName)); err == nil {
		fmt.Printf("segment:         %s, %d bytes\n", ckpt.SegmentName, st.Size())
	} else {
		fmt.Printf("segment:         %s UNREADABLE: %v\n", ckpt.SegmentName, err)
	}
	printFiles := func(files []ckpt.FileInfo) int64 {
		var bytes int64
		for _, fi := range files {
			bytes += fi.Bytes
		}
		fmt.Printf("payloads:        %d (%d bytes)\n", len(files), bytes)
		for _, fi := range files {
			suffix := ""
			if fi.Append {
				suffix = "  [append]"
			}
			if fi.Count > 0 {
				fmt.Printf("  %-20s @%-10d %12d bytes %12d items%s\n", fi.Name, fi.Offset, fi.Bytes, fi.Count, suffix)
			} else {
				fmt.Printf("  %-20s @%-10d %12d bytes%s\n", fi.Name, fi.Offset, fi.Bytes, suffix)
			}
		}
		return bytes
	}
	headBytes := printFiles(m.Files)
	if m.Parent != "" {
		fmt.Printf("delta chain:     depth %d (head + parents below, oldest last)\n", m.Depth)
		fmt.Printf("  %-20s scans=%-4d %12d bytes  (%s)\n", filepath.Base(resolved), m.ScanIndex, headBytes, levelKind(m))
		base := filepath.Dir(resolved)
		cur, total := m, headBytes
		for cur.Parent != "" {
			pdir := filepath.Join(base, cur.Parent)
			pm, err := ckpt.ReadManifest(pdir)
			if err != nil {
				fmt.Printf("  %-20s UNREADABLE: %v\n", cur.Parent, err)
				break
			}
			var pbytes int64
			for _, fi := range pm.Files {
				pbytes += fi.Bytes
			}
			total += pbytes
			fmt.Printf("  %-20s scans=%-4d %12d bytes  (%s)\n", cur.Parent, pm.ScanIndex, pbytes, levelKind(pm))
			cur = pm
		}
		fmt.Printf("chain total:     %d bytes\n", total)
	}
}

// levelKind describes one chain level: "full", or a delta with how many
// of its payloads append.
func levelKind(m ckpt.Manifest) string {
	if m.Parent == "" {
		return "full"
	}
	n := 0
	for _, fi := range m.Files {
		if fi.Append {
			n++
		}
	}
	return fmt.Sprintf("delta, %d/%d payloads append", n, len(m.Files))
}

// hl6Sample prints a deterministic query workload drawn from a .hl6:
// -n member addresses (uniform flat-index draws, so big shards weigh
// proportionally) interleaved with -miss uniform-random non-members,
// one address per line. Feed the output to `hitlist6serve query` and
// `hl6 check` to compare served answers against offline truth.
func hl6Sample(args []string) {
	fs := flag.NewFlagSet("hl6 sample", flag.ExitOnError)
	var (
		n    = fs.Int("n", 500, "member addresses to draw")
		miss = fs.Int("miss", 500, "non-member addresses to draw")
		seed = fs.Uint64("seed", 42, "draw seed")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hitlist6 hl6 sample [-n N] [-miss M] [-seed S] file.hl6")
		os.Exit(2)
	}
	r, err := hlfile.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	set, err := r.SortedSet()
	if err != nil {
		fatal(err)
	}
	if set.Len() == 0 && *n > 0 {
		fatal(fmt.Errorf("hl6 sample: %s is empty, cannot draw members", fs.Arg(0)))
	}
	rs := rng.NewStream(*seed, "hl6-sample")
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	for hits, misses := *n, *miss; hits > 0 || misses > 0; {
		// Interleave so the served workload alternates answer kinds
		// instead of a positive block followed by a negative block.
		if hits > 0 {
			idx := rs.Intn(set.Len())
			for sh := 0; sh < ip6.AddrShards; sh++ {
				if run := set.Shard(sh); idx < len(run) {
					fmt.Fprintln(out, run[idx].String())
					break
				} else {
					idx -= len(run)
				}
			}
			hits--
		}
		if misses > 0 {
			// Uniform 128-bit draws collide with any realistic hitlist
			// with negligible probability; reject the draw if it does.
			a := ip6.AddrFromUint64s(rs.Uint64(), rs.Uint64())
			for set.Has(a) {
				a = ip6.AddrFromUint64s(rs.Uint64(), rs.Uint64())
			}
			fmt.Fprintln(out, a.String())
			misses--
		}
	}
}

// hl6Check answers a query workload offline: for each input address it
// prints "addr,live" with live = hitlist membership — the ground truth
// the serve smoke test diffs `hitlist6serve query` output against.
// Addresses print in canonical ip6 form, matching the query client.
func hl6Check(args []string) {
	fs := flag.NewFlagSet("hl6 check", flag.ExitOnError)
	in := fs.String("in", "-", "input file, one address per line ('-' = stdin)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hitlist6 hl6 check [-in addrs.txt] file.hl6")
		os.Exit(2)
	}
	r, err := hlfile.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	set, err := r.SortedSet()
	if err != nil {
		fatal(err)
	}

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	sc := bufio.NewScanner(src)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		a, err := ip6.ParseAddr(line)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "%s,%v\n", a.String(), set.Has(a))
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "%v\n", err)
	os.Exit(1)
}
