// Command obsdump renders a recorded NDJSON run-trace (dtnsim
// -trace-out / experiments -trace-out) as human-readable tables: the
// run manifest, a binned timeline of event counts, and the evolution
// of cache occupancy and query hit ratio over virtual time.
//
// Usage:
//
//	dtnsim -trace Infocom05 -trace-out run.ndjson
//	obsdump run.ndjson
//	obsdump -bins 12 run.ndjson
//	obsdump -spans run.ndjson                  # critical-path attribution
//	obsdump -spans -span-query 116 run.ndjson  # one query's full tree
//	cat a.ndjson b.ndjson | obsdump     # one section per manifest
//
// Concatenating traces of several schemes gives a per-scheme section
// each, so scheme behaviors can be compared side by side. With -spans
// the provenance span lines are reconstructed into per-query trees
// instead: each run section gets a table of the slowest satisfied
// queries with their end-to-end delay split into waiting-for-contact,
// queued-behind-the-push-budget and transferring shares, plus that
// scheme's aggregate split.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"dtncache/internal/obs"
	"dtncache/internal/provenance"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return // usage already printed; --help is a successful exit
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsdump:", err)
		os.Exit(1)
	}
}

// event is one decoded NDJSON trace line. Manifest and span lines
// reuse the struct: their extra fields are simply empty on ordinary
// events. parseRuns presets the value-omitted fields (a/b/id negative,
// pa negative, nq == t) so decoded lines round-trip the encoder's
// omission rules.
type event struct {
	K  string  `json:"k"`
	T  float64 `json:"t"`
	A  int32   `json:"a"`
	B  int32   `json:"b"`
	ID int64   `json:"id"`
	X  int64   `json:"x"`
	V  float64 `json:"v"`
	S  string  `json:"s"`

	// Span fields (k == "span").
	E  float64  `json:"e"`
	Nq *float64 `json:"nq"`
	Tr string   `json:"tr"`
	Sp int64    `json:"sp"`
	Pa int64    `json:"pa"`
	Op string   `json:"op"`

	// Manifest header fields (k == "manifest").
	Trace        string `json:"trace"`
	Scheme       string `json:"scheme"`
	Seed         int64  `json:"seed"`
	ConfigDigest string `json:"config_digest"`
	GoVersion    string `json:"go_version"`
	GoMaxProcs   int    `json:"gomaxprocs"`
	GitDescribe  string `json:"git_describe"`
}

// maxBins bounds the timeline resolution; beyond this the tables are
// unreadable anyway and the per-kind count rows get large.
const maxBins = 1_000_000

// runTrace is one manifest-delimited section of the input.
type runTrace struct {
	manifest *event // nil when the trace starts without a header
	events   []event
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("obsdump", flag.ContinueOnError)
	bins := fs.Int("bins", 24, "number of virtual-time bins in the timeline tables")
	spans := fs.Bool("spans", false, "reconstruct span trees and print per-query critical-path delay attribution")
	top := fs.Int("top", 10, "with -spans, number of slowest queries in the attribution table")
	spanQuery := fs.Int64("span-query", -1, "with -spans, also print the full span tree of this query ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bins < 1 {
		return fmt.Errorf("-bins must be positive, got %d", *bins)
	}
	// Each occurring kind allocates a bins-long row; an absurd bin count
	// would abort with an out-of-memory panic instead of an error.
	if *bins > maxBins {
		return fmt.Errorf("-bins must be at most %d, got %d", maxBins, *bins)
	}
	if *top < 1 {
		return fmt.Errorf("-top must be positive, got %d", *top)
	}

	var in io.Reader = os.Stdin
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	} else if fs.NArg() > 1 {
		return fmt.Errorf("at most one input file, got %d", fs.NArg())
	}

	runs, err := parseRuns(in)
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		return errors.New("no trace events in input")
	}
	if *spans {
		total := 0
		for _, rt := range runs {
			for i := range rt.events {
				if rt.events[i].K == obs.KindSpan.String() {
					total++
				}
			}
		}
		if total == 0 {
			return errors.New("no span events in input: -spans needs a trace recorded with span tracing on (any -trace-out run of this build)")
		}
		found := false
		for i, rt := range runs {
			if i > 0 {
				fmt.Fprintln(w)
			}
			found = renderSpans(w, i+1, rt, *top, *spanQuery) || found
		}
		if *spanQuery >= 0 && !found {
			return fmt.Errorf("query %d has no spans in the input", *spanQuery)
		}
		return nil
	}
	for i, rt := range runs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		render(w, i+1, rt, *bins)
	}
	return nil
}

// parseRuns splits the NDJSON stream into manifest-delimited runs.
// Unknown kinds are kept (counted under their name); malformed lines
// are an error with their line number.
func parseRuns(r io.Reader) ([]runTrace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var runs []runTrace
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		ev := event{Pa: -1} // "pa" is value-omitted on root spans
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if ev.K == obs.KindManifest.String() {
			runs = append(runs, runTrace{manifest: &ev})
			continue
		}
		if len(runs) == 0 {
			runs = append(runs, runTrace{})
		}
		cur := &runs[len(runs)-1]
		cur.events = append(cur.events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("line %d: %w", line+1, err)
	}
	return runs, nil
}

// header writes one run section's manifest line.
func header(w io.Writer, n int, rt runTrace) {
	fmt.Fprintf(w, "run %d:", n)
	if m := rt.manifest; m != nil {
		if m.Trace != "" {
			fmt.Fprintf(w, " trace=%q", m.Trace)
		}
		if m.Scheme != "" {
			fmt.Fprintf(w, " scheme=%s", m.Scheme)
		}
		fmt.Fprintf(w, " seed=%d", m.Seed)
		if m.ConfigDigest != "" {
			fmt.Fprintf(w, " digest=%s", m.ConfigDigest)
		}
		fmt.Fprintf(w, " %s gomaxprocs=%d", m.GoVersion, m.GoMaxProcs)
		if m.GitDescribe != "" {
			fmt.Fprintf(w, " git=%s", m.GitDescribe)
		}
	} else {
		fmt.Fprint(w, " (no manifest header)")
	}
	fmt.Fprintln(w)
}

// render writes one run's manifest, timeline and evolution tables.
func render(w io.Writer, n int, rt runTrace, bins int) {
	header(w, n, rt)
	if len(rt.events) == 0 {
		fmt.Fprintln(w, "  no events")
		return
	}

	maxT := 0.0
	for i := range rt.events {
		if rt.events[i].T > maxT {
			maxT = rt.events[i].T
		}
	}
	fmt.Fprintf(w, "  %d events over [0, %.0fs] (%.1f days)\n",
		len(rt.events), maxT, maxT/86400)

	timeline(w, rt.events, bins, maxT)
	evolution(w, rt.events, bins, maxT)
	cellTable(w, rt.events)
}

// binOf maps a virtual time onto [0, bins).
func binOf(t, maxT float64, bins int) int {
	if maxT <= 0 {
		return 0
	}
	i := int(t / maxT * float64(bins))
	if i >= bins {
		i = bins - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// timelineKinds is the column order of the timeline table; kinds with
// no occurrences are dropped from the output.
var timelineKinds = []obs.Kind{
	obs.KindContactBegin, obs.KindContactEnd,
	obs.KindQueryIssued, obs.KindQueryExpired,
	obs.KindCacheInsert, obs.KindCacheEvict,
	obs.KindPush, obs.KindKnowledge,
	obs.KindNodeDown, obs.KindNodeUp,
	obs.KindContactTruncated, obs.KindTransferKilled,
	obs.KindFailover, obs.KindReplicate,
	obs.KindSpan,
}

// timeline prints per-bin event counts, one column per occurring kind.
func timeline(w io.Writer, events []event, bins int, maxT float64) {
	counts := make(map[string][]int64)
	for i := range events {
		ev := &events[i]
		if ev.K == obs.KindCell.String() {
			continue // wall-clock cell events get their own table
		}
		row := counts[ev.K]
		if row == nil {
			row = make([]int64, bins)
			counts[ev.K] = row
		}
		row[binOf(ev.T, maxT, bins)]++
	}
	if len(counts) == 0 {
		return
	}
	var cols []string
	for _, k := range timelineKinds {
		if counts[k.String()] != nil {
			cols = append(cols, k.String())
		}
	}
	// Kinds outside the known set (future trace versions) still show up,
	// in sorted name order so the rendering is deterministic.
	var unknown []string
	for k := range counts {
		if _, known := obs.KindByName(k); !known {
			unknown = append(unknown, k)
		}
	}
	sort.Strings(unknown)
	cols = append(cols, unknown...)

	fmt.Fprintf(w, "\n  timeline (%d bins of %s):\n", bins, fmtDur(maxT/float64(bins)))
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "\tt-start\t")
	for _, c := range cols {
		fmt.Fprintf(tw, "%s\t", c)
	}
	fmt.Fprintln(tw)
	for b := 0; b < bins; b++ {
		fmt.Fprintf(tw, "\t%s\t", fmtDur(maxT*float64(b)/float64(bins)))
		for _, c := range cols {
			fmt.Fprintf(tw, "%d\t", counts[c][b])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// evolution prints the cumulative cache occupancy (inserts − evicts)
// and query hit ratio (answered / issued) at the end of each bin. A
// query is answered at its deliver span: the provenance span is the
// run-trace's one record of an answer.
func evolution(w io.Writer, events []event, bins int, maxT float64) {
	type acc struct{ insert, evict, issued, answered, expired int64 }
	per := make([]acc, bins)
	any := false
	for i := range events {
		ev := &events[i]
		a := &per[binOf(ev.T, maxT, bins)]
		switch ev.K {
		case obs.KindCacheInsert.String():
			a.insert++
		case obs.KindCacheEvict.String():
			a.evict++
		case obs.KindQueryIssued.String():
			a.issued++
		case obs.KindSpan.String():
			if ev.Op != provenance.OpDeliver {
				continue
			}
			a.answered++
		case obs.KindQueryExpired.String():
			a.expired++
		default:
			continue
		}
		any = true
	}
	if !any {
		return
	}
	fmt.Fprintf(w, "\n  evolution (cumulative at bin end):\n")
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "\tt-end\tcached\tissued\tanswered\texpired\thit-ratio\t")
	var cum acc
	for b := 0; b < bins; b++ {
		cum.insert += per[b].insert
		cum.evict += per[b].evict
		cum.issued += per[b].issued
		cum.answered += per[b].answered
		cum.expired += per[b].expired
		ratio := "-"
		if cum.issued > 0 {
			ratio = fmt.Sprintf("%.3f", float64(cum.answered)/float64(cum.issued))
		}
		fmt.Fprintf(tw, "\t%s\t%d\t%d\t%d\t%d\t%s\t\n",
			fmtDur(maxT*float64(b+1)/float64(bins)),
			cum.insert-cum.evict, cum.issued, cum.answered, cum.expired, ratio)
	}
	tw.Flush()
}

// cellTable summarizes experiment sweep-cell events per scheme label.
func cellTable(w io.Writer, events []event) {
	type agg struct {
		cells int64
		wall  float64
	}
	per := make(map[string]*agg)
	var order []string
	for i := range events {
		ev := &events[i]
		if ev.K != obs.KindCell.String() {
			continue
		}
		a := per[ev.S]
		if a == nil {
			a = &agg{}
			per[ev.S] = a
			order = append(order, ev.S)
		}
		a.cells++
		a.wall += ev.V
	}
	if len(per) == 0 {
		return
	}
	fmt.Fprintf(w, "\n  sweep cells per scheme:\n")
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\tscheme\tcells\twall-total\t")
	for _, s := range order {
		fmt.Fprintf(tw, "\t%s\t%d\t%.2fs\t\n", s, per[s].cells, per[s].wall)
	}
	tw.Flush()
}

// toSpan reverses the trace encoding of one span line back into the
// event the tracer emitted (pa was preset to -1 at decode; a missing
// nq means the transfer was enqueued at segment start).
func toSpan(ev *event) obs.SpanEvent {
	tr, _ := strconv.ParseUint(ev.Tr, 16, 64)
	sp := obs.SpanEvent{Trace: tr, ID: ev.Sp, Parent: ev.Pa, Op: ev.Op,
		Start: ev.T, End: ev.E, Enq: ev.T, A: ev.A, B: ev.B,
		Query: ev.ID, Aux: ev.X, V: ev.V}
	if ev.Nq != nil {
		sp.Enq = *ev.Nq
	}
	return sp
}

// renderSpans writes one run's span-tree analysis: the slowest
// satisfied queries with their critical-path delay split, the run's
// (i.e. that scheme's) aggregate split, and — when spanQuery matches a
// query in this run — its full span tree. Reports whether spanQuery
// was found.
func renderSpans(w io.Writer, n int, rt runTrace, top int, spanQuery int64) bool {
	header(w, n, rt)
	var spans []obs.SpanEvent
	for i := range rt.events {
		if rt.events[i].K == obs.KindSpan.String() {
			spans = append(spans, toSpan(&rt.events[i]))
		}
	}
	if len(spans) == 0 {
		fmt.Fprintln(w, "  no span events in this run")
		return false
	}
	trees := provenance.BuildTrees(spans)

	type row struct {
		tree *provenance.Tree
		attr provenance.Attribution
		path []*obs.SpanEvent
	}
	var rows []row
	for _, tree := range trees {
		if attr, ok := tree.Attribute(); ok {
			rows = append(rows, row{tree, attr, tree.CriticalPath()})
		}
	}
	fmt.Fprintf(w, "  %d spans across %d traced queries, %d satisfied\n",
		len(spans), len(trees), len(rows))

	if len(rows) > 0 {
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].attr.Total != rows[j].attr.Total {
				return rows[i].attr.Total > rows[j].attr.Total
			}
			return rows[i].tree.Query < rows[j].tree.Query
		})
		var sum provenance.Attribution
		for _, r := range rows {
			sum.Total += r.attr.Total
			sum.Wait += r.attr.Wait
			sum.Queued += r.attr.Queued
			sum.Transfer += r.attr.Transfer
			sum.Hops += r.attr.Hops
		}
		shown := rows
		if len(shown) > top {
			shown = shown[:top]
		}
		fmt.Fprintf(w, "\n  critical-path delay attribution (%d slowest of %d):\n",
			len(shown), len(rows))
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "\tquery\tdelay\thops\twait%\tqueued%\txfer%\tpath\t")
		for _, r := range shown {
			fmt.Fprintf(tw, "\t%d\t%s\t%d\t%s\t%s\t%s\t%s\t\n",
				r.tree.Query, fmtDur(r.attr.Total), r.attr.Hops,
				pct(r.attr.Wait, r.attr.Total), pct(r.attr.Queued, r.attr.Total),
				pct(r.attr.Transfer, r.attr.Total), pathNodes(r.path))
		}
		tw.Flush()

		scheme := "run"
		if rt.manifest != nil && rt.manifest.Scheme != "" {
			scheme = rt.manifest.Scheme
		}
		fmt.Fprintf(w, "\n  %s aggregate over %d satisfied queries:\n", scheme, len(rows))
		fmt.Fprintf(w, "    mean delay %s, mean hops %.1f: wait %s%%, queued %s%%, transfer %s%%\n",
			fmtDur(sum.Total/float64(len(rows))), float64(sum.Hops)/float64(len(rows)),
			pct(sum.Wait, sum.Total), pct(sum.Queued, sum.Total), pct(sum.Transfer, sum.Total))
	}

	found := false
	if spanQuery >= 0 {
		for _, tree := range trees {
			if tree.Query == spanQuery {
				printTree(w, tree)
				found = true
			}
		}
	}
	return found
}

// pct renders part/total as a percentage string, "-" at zero total.
func pct(part, total float64) string {
	if total <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*part/total)
}

// pathNodes renders the node chain of a critical path, e.g. 2>5>9>4>2:
// the query's route out plus the reply's route back.
func pathNodes(path []*obs.SpanEvent) string {
	var b strings.Builder
	first := true
	for _, sp := range path {
		switch sp.Op {
		case provenance.OpQuerySeg, provenance.OpQuerySpray,
			provenance.OpQueryBcast, provenance.OpReplySeg:
			if first {
				fmt.Fprintf(&b, "%d", sp.A)
				first = false
			}
			fmt.Fprintf(&b, ">%d", sp.B)
		}
	}
	if first {
		return "-"
	}
	return b.String()
}

// printTree writes one query's full span tree, indented by causality.
func printTree(w io.Writer, tree *provenance.Tree) {
	fmt.Fprintf(w, "\n  span tree for query %d (trace %016x):\n", tree.Query, tree.TraceID)
	root := tree.Root()
	if root == nil {
		// Unsatisfied queries have no root issue span to hang the tree
		// from; show what was recorded, flat in span-ID order.
		fmt.Fprintln(w, "    (not satisfied: no root span; spans in ID order)")
		for i := range tree.Spans {
			fmt.Fprintf(w, "    %s\n", spanLine(&tree.Spans[i]))
		}
		return
	}
	var rec func(sp *obs.SpanEvent, depth int)
	rec = func(sp *obs.SpanEvent, depth int) {
		fmt.Fprintf(w, "    %s%s\n", strings.Repeat("  ", depth), spanLine(sp))
		for _, c := range tree.Children(sp.ID) {
			rec(c, depth+1)
		}
	}
	rec(root, 0)
}

// spanLine renders one span compactly, per-op.
func spanLine(sp *obs.SpanEvent) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%d] %s", sp.ID, sp.Op)
	switch sp.Op {
	case provenance.OpQuerySeg, provenance.OpQuerySpray,
		provenance.OpQueryBcast, provenance.OpReplySeg:
		fmt.Fprintf(&b, " %d>%d [%g, %g] wait %s xfer %gs",
			sp.A, sp.B, sp.Start, sp.End, fmtDur(sp.Enq-sp.Start), sp.V)
	case provenance.OpIssue:
		fmt.Fprintf(&b, " node %d data %d [%g, %g] (%s)",
			sp.A, sp.Aux, sp.Start, sp.End, fmtDur(sp.End-sp.Start))
	case provenance.OpDeliver:
		fmt.Fprintf(&b, " node %d @%g delay %s", sp.A, sp.Start, fmtDur(sp.V))
	case provenance.OpPull:
		fmt.Fprintf(&b, " node %d @%g data %d util %g", sp.A, sp.Start, sp.Aux, sp.V)
	case provenance.OpNCLMiss:
		fmt.Fprintf(&b, " center %d @%g ncl %d", sp.A, sp.Start, sp.Aux)
	case provenance.OpRetry:
		fmt.Fprintf(&b, " node %d @%g attempt %d", sp.A, sp.Start, sp.Aux)
	default:
		fmt.Fprintf(&b, " a=%d b=%d [%g, %g] x=%d v=%g",
			sp.A, sp.B, sp.Start, sp.End, sp.Aux, sp.V)
	}
	return b.String()
}

// fmtDur renders a virtual-time duration in seconds compactly.
func fmtDur(sec float64) string {
	switch {
	case sec >= 86400:
		return fmt.Sprintf("%.1fd", sec/86400)
	case sec >= 3600:
		return fmt.Sprintf("%.1fh", sec/3600)
	case sec >= 60:
		return fmt.Sprintf("%.1fm", sec/60)
	}
	return fmt.Sprintf("%.0fs", sec)
}
