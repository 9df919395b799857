package scan

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hitlist6/internal/dnswire"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
)

// The CSV schema mirrors what the IPv6 Hitlist service publishes from
// ZMapv6 runs, extended with the decoded DNS answer summary the GFW filter
// needs. Columns:
//
//	saddr, protocol, day, success, kind, num_responses, rcode, answers
//
// answers is a semicolon-separated list of "TYPE:value" pairs across all
// responses ("A:1.2.3.4;AAAA:2001::1"). Non-DNS rows leave rcode/answers
// empty.

// CSVHeader is the output header row.
var CSVHeader = []string{"saddr", "protocol", "day", "success", "kind", "num_responses", "rcode", "answers"}

// Record is one parsed CSV row.
type Record struct {
	Addr      ip6.Addr
	Proto     netmodel.Protocol
	Day       int
	Success   bool
	Kind      netmodel.RespKind
	Responses int
	RCode     string
	Answers   []AnswerSummary
}

// AnswerSummary is one decoded answer record.
type AnswerSummary struct {
	Type  dnswire.Type
	Value string
}

// SummarizeDNS decodes the raw DNS messages of a result into (rcode,
// answers). The first message's rcode is reported; answers accumulate
// across messages, which is how multi-injector responses become visible in
// a single row.
func SummarizeDNS(msgs [][]byte) (string, []AnswerSummary) {
	var scratch dnswire.Message
	return summarizeDNS(msgs, &scratch, nil)
}

// summarizeDNS is SummarizeDNS decoding into a caller-held scratch message
// and appending to a caller-held answer buffer — the reusable form the CSV
// writer runs per row.
func summarizeDNS(msgs [][]byte, scratch *dnswire.Message, out []AnswerSummary) (string, []AnswerSummary) {
	var rcode string
	for i, wire := range msgs {
		if err := dnswire.DecodeInto(wire, scratch); err != nil {
			continue
		}
		if i == 0 {
			rcode = scratch.Header.RCode.String()
		}
		for _, a := range scratch.Answers {
			var v string
			switch a.Type {
			case dnswire.TypeA:
				v = a.A.String()
			case dnswire.TypeAAAA:
				v = a.AAAA.String()
			case dnswire.TypeCNAME, dnswire.TypeNS, dnswire.TypePTR, dnswire.TypeMX:
				v = a.Target
			case dnswire.TypeTXT:
				v = a.Text
			}
			out = append(out, AnswerSummary{Type: a.Type, Value: v})
		}
	}
	return rcode, out
}

// Writer streams results as CSV.
type Writer struct {
	w  *csv.Writer
	bw *bufio.Writer

	// Per-row scratch, reused across Write calls (a Writer is not safe
	// for concurrent use anyway: rows interleave).
	scratch dnswire.Message
	answers []AnswerSummary
	parts   []string
	row     [8]string
}

// NewWriter creates a CSV writer and emits the header.
func NewWriter(out io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(out)
	w := csv.NewWriter(bw)
	if err := w.Write(CSVHeader); err != nil {
		return nil, fmt.Errorf("scan: writing CSV header: %w", err)
	}
	return &Writer{w: w, bw: bw}, nil
}

// NewBodyWriter creates a CSV writer that emits rows only, no header.
// Canonical-order consumers (zmap6sim -fleet) write one body per shard
// and concatenate them in shard order behind a single header.
func NewBodyWriter(out io.Writer) *Writer {
	bw := bufio.NewWriter(out)
	return &Writer{w: csv.NewWriter(bw), bw: bw}
}

// Write emits one result row. The Writer's scratch buffers are reused
// across rows, so Write is not safe for concurrent use (it never was:
// rows would interleave).
func (w *Writer) Write(r Result) error {
	rcode, answers := "", w.answers[:0]
	if r.Proto == netmodel.UDP53 && len(r.DNS) > 0 {
		rcode, answers = summarizeDNS(r.DNS, &w.scratch, answers)
	}
	w.answers = answers[:0]
	parts := w.parts[:0]
	for _, a := range answers {
		parts = append(parts, a.Type.String()+":"+a.Value)
	}
	w.parts = parts[:0]
	w.row = [8]string{
		r.Target.String(),
		r.Proto.String(),
		strconv.Itoa(r.Day),
		strconv.FormatBool(r.Success),
		strconv.Itoa(int(r.Kind)),
		strconv.Itoa(len(r.DNS)),
		rcode,
		strings.Join(parts, ";"),
	}
	if err := w.w.Write(w.row[:]); err != nil {
		return fmt.Errorf("scan: writing CSV row: %w", err)
	}
	return nil
}

// WriteRecord re-emits a parsed record (the gfw-filter tool's path: parse,
// filter, re-serialize without re-probing anything).
func (w *Writer) WriteRecord(rec Record) error {
	parts := make([]string, 0, len(rec.Answers))
	for _, a := range rec.Answers {
		parts = append(parts, a.Type.String()+":"+a.Value)
	}
	row := []string{
		rec.Addr.String(),
		rec.Proto.String(),
		strconv.Itoa(rec.Day),
		strconv.FormatBool(rec.Success),
		strconv.Itoa(int(rec.Kind)),
		strconv.Itoa(rec.Responses),
		rec.RCode,
		strings.Join(parts, ";"),
	}
	if err := w.w.Write(row); err != nil {
		return fmt.Errorf("scan: writing CSV row: %w", err)
	}
	return nil
}

// Flush flushes buffered rows.
func (w *Writer) Flush() error {
	w.w.Flush()
	if err := w.w.Error(); err != nil {
		return err
	}
	return w.bw.Flush()
}

// ReadAll parses a result CSV produced by Writer.
func ReadAll(in io.Reader) ([]Record, error) {
	r := csv.NewReader(in)
	r.FieldsPerRecord = len(CSVHeader)
	rows, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("scan: reading CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("scan: empty CSV")
	}
	var out []Record
	for i, row := range rows {
		if i == 0 {
			if row[0] != "saddr" {
				return nil, fmt.Errorf("scan: unexpected header %v", row)
			}
			continue
		}
		rec, err := parseRow(row)
		if err != nil {
			return nil, fmt.Errorf("scan: row %d: %w", i, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

func parseRow(row []string) (Record, error) {
	var rec Record
	var err error
	if rec.Addr, err = ip6.ParseAddr(row[0]); err != nil {
		return rec, err
	}
	if rec.Proto, err = netmodel.ParseProtocol(row[1]); err != nil {
		return rec, err
	}
	if rec.Day, err = strconv.Atoi(row[2]); err != nil {
		return rec, fmt.Errorf("day: %w", err)
	}
	if rec.Success, err = strconv.ParseBool(row[3]); err != nil {
		return rec, fmt.Errorf("success: %w", err)
	}
	kind, err := strconv.Atoi(row[4])
	if err != nil {
		return rec, fmt.Errorf("kind: %w", err)
	}
	rec.Kind = netmodel.RespKind(kind)
	if rec.Responses, err = strconv.Atoi(row[5]); err != nil {
		return rec, fmt.Errorf("num_responses: %w", err)
	}
	rec.RCode = row[6]
	if row[7] != "" {
		for _, part := range strings.Split(row[7], ";") {
			tv := strings.SplitN(part, ":", 2)
			if len(tv) != 2 {
				return rec, fmt.Errorf("bad answer %q", part)
			}
			var typ dnswire.Type
			switch tv[0] {
			case "A":
				typ = dnswire.TypeA
			case "AAAA":
				typ = dnswire.TypeAAAA
			case "CNAME":
				typ = dnswire.TypeCNAME
			case "NS":
				typ = dnswire.TypeNS
			case "MX":
				typ = dnswire.TypeMX
			case "TXT":
				typ = dnswire.TypeTXT
			default:
				return rec, fmt.Errorf("bad answer type %q", tv[0])
			}
			rec.Answers = append(rec.Answers, AnswerSummary{Type: typ, Value: tv[1]})
		}
	}
	return rec, nil
}
