// Package cli holds the flag-group and setup helpers shared by this
// repository's binaries: trace loading (preset or file), fault-injection
// flags, workload/protocol flags that build an engine.Config, and the
// observability sink wiring (run-trace stream, flight-recorder ring,
// sampling). cmd/dtnsim, cmd/experiments, cmd/dtnserved and cmd/dtnload
// register the groups they need on their own FlagSets so every binary
// spells the same knob the same way and builds configs through one code
// path.
//
// The package is driver-level: unlike the engine underneath it may read
// the wall clock (WallClock feeds the obs phase timers) and touch the
// filesystem.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dtncache/internal/engine"
	"dtncache/internal/fault"
	"dtncache/internal/metrics"
	"dtncache/internal/obs"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
)

// WallClock is the nanosecond clock binaries inject into obs phase
// timers (internal/obs itself is determinism-linted and never reads the
// wall clock).
func WallClock() int64 { return time.Now().UnixNano() }

// TraceFlags selects the contact trace: a built-in preset or a file in
// one of the supported formats, optionally replayed as a stream.
type TraceFlags struct {
	Preset *string
	File   *string
	Format *string
	Stream *bool
}

// AddTraceFlags registers -trace, -tracefile, -format and -stream on fs.
func AddTraceFlags(fs *flag.FlagSet) *TraceFlags {
	return &TraceFlags{
		Preset: fs.String("trace", "MIT Reality", "trace preset (Infocom05, Infocom06, 'MIT Reality', UCSD)"),
		File:   fs.String("tracefile", "", "read the trace from this file instead of a preset"),
		Format: fs.String("format", "plain", "trace file format: plain ('a b start end'), csv ('a,b,start,end'), one (ONE simulator CONN events) or chunked (binary stream, see tracegen -emit chunked)"),
		Stream: fs.Bool("stream", false, "replay the tracefile without materializing contacts in memory (requires -format chunked)"),
	}
}

// Load reads or generates the selected trace; seed drives preset
// generation. With -stream set it reads only the chunked header and
// returns a metadata-only trace (empty Contacts) — Opener supplies the
// contact stream.
func (t *TraceFlags) Load(seed int64) (*trace.Trace, error) {
	if *t.Stream {
		if *t.File == "" || strings.ToLower(*t.Format) != "chunked" {
			return nil, fmt.Errorf("-stream requires -tracefile with -format chunked")
		}
		f, err := os.Open(*t.File)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sr, err := trace.NewStreamReader(f)
		if err != nil {
			return nil, err
		}
		m := sr.Meta()
		return &trace.Trace{Name: m.Name, Nodes: m.Nodes, Duration: m.Duration, Granularity: m.Granularity}, nil
	}
	if *t.File == "" {
		return trace.GeneratePreset(trace.Preset(*t.Preset), seed)
	}
	f, err := os.Open(*t.File)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch strings.ToLower(*t.Format) {
	case "plain":
		return trace.Read(f)
	case "csv":
		return trace.ReadCSV(f)
	case "one":
		return trace.ReadONE(f)
	case "chunked":
		return trace.ReadChunked(f)
	default:
		return nil, fmt.Errorf("unknown trace format %q", *t.Format)
	}
}

// Opener returns the engine.Config.Stream opener when -stream is set,
// nil otherwise. Each call opens the tracefile afresh, as the streaming
// contracts require; the underlying file closes itself when the source
// is drained or errors.
func (t *TraceFlags) Opener() func() (trace.ContactSource, error) {
	if !*t.Stream {
		return nil
	}
	file := *t.File
	return func() (trace.ContactSource, error) {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		sr, err := trace.NewStreamReader(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		return &fileSource{f: f, sr: sr}, nil
	}
}

// fileSource streams contacts from an open tracefile and closes it at
// EOF or on the first read error. A source abandoned mid-stream (a
// knowledge-feed rewind) holds its descriptor until process exit —
// fine for one-shot CLI runs, which is all this type serves.
type fileSource struct {
	f  *os.File
	sr *trace.StreamReader
}

func (s *fileSource) NextContact() (trace.Contact, error) {
	c, err := s.sr.NextContact()
	if err != nil && s.f != nil {
		s.f.Close()
		s.f = nil
	}
	return c, err
}

// FaultFlags configures the deterministic fault-injection engine.
type FaultFlags struct {
	Churn         *float64
	Downtime      *time.Duration
	Wipe          *bool
	Truncate      *float64
	BlackoutK     *int
	BlackoutStart *time.Duration
	BlackoutEnd   *time.Duration
}

// AddFaultFlags registers the -fault-* flags on fs.
func AddFaultFlags(fs *flag.FlagSet) *FaultFlags {
	return &FaultFlags{
		Churn:         fs.Float64("fault-churn", 0, "node churn: expected crashes per node per day (begins at the trace midpoint)"),
		Downtime:      fs.Duration("fault-downtime", 4*time.Hour, "mean downtime per crash"),
		Wipe:          fs.Bool("fault-wipe", true, "wipe node buffers on crash"),
		Truncate:      fs.Float64("fault-truncate", 0, "probability a contact is truncated to a random fraction of its duration"),
		BlackoutK:     fs.Int("fault-blackout", 0, "number of top-ranked NCLs to black out for a window"),
		BlackoutStart: fs.Duration("fault-blackout-start", 0, "blackout window start (0 with -fault-blackout = trace midpoint)"),
		BlackoutEnd:   fs.Duration("fault-blackout-end", 0, "blackout window end (0 with -fault-blackout = 3/4 of the trace)"),
	}
}

// Config translates the flags into a fault.Config for a trace of the
// given duration: churn starts at the trace midpoint, and an unbounded
// blackout window defaults to the [1/2, 3/4] span of the trace.
func (f *FaultFlags) Config(traceDurationSec float64) fault.Config {
	var fc fault.Config
	if *f.Churn > 0 {
		fc = fault.Config{
			ChurnMeanUpSec:   86400 / *f.Churn,
			ChurnMeanDownSec: f.Downtime.Seconds(),
			ChurnStartSec:    traceDurationSec / 2,
			WipeOnCrash:      *f.Wipe,
		}
	}
	fc.TruncateProb = *f.Truncate
	if *f.BlackoutK > 0 {
		fc.BlackoutNCLs = *f.BlackoutK
		fc.BlackoutStartSec = f.BlackoutStart.Seconds()
		fc.BlackoutEndSec = f.BlackoutEnd.Seconds()
		if fc.BlackoutEndSec == 0 {
			fc.BlackoutStartSec = traceDurationSec / 2
			fc.BlackoutEndSec = 3 * traceDurationSec / 4
		}
	}
	return fc
}

// EngineFlags are the workload and protocol knobs an engine.Config is
// built from.
type EngineFlags struct {
	TL         *time.Duration
	Savg       *float64
	Zipf       *float64
	K          *int
	Seed       *int64
	BufMin     *float64
	BufMax     *float64
	Drop       *float64
	Response   *string
	Retry      *time.Duration
	RetryMax   *int
	Failover   *bool
	PushBudget *int
	Invariants *bool
}

// AddEngineFlags registers the workload/protocol flags on fs.
func AddEngineFlags(fs *flag.FlagSet) *EngineFlags {
	return &EngineFlags{
		TL:         fs.Duration("tl", 7*24*time.Hour, "average data lifetime T_L"),
		Savg:       fs.Float64("savg", 100, "average data size in Mb"),
		Zipf:       fs.Float64("zipf", 1, "Zipf query exponent s"),
		K:          fs.Int("k", 8, "number of NCLs (K)"),
		Seed:       fs.Int64("seed", 1, "random seed"),
		BufMin:     fs.Float64("bufmin", 200, "minimum node buffer in Mb"),
		BufMax:     fs.Float64("bufmax", 600, "maximum node buffer in Mb"),
		Drop:       fs.Float64("drop", 0, "transfer failure-injection probability"),
		Response:   fs.String("response", "sigmoid", "response mode: global, sigmoid, always"),
		Retry:      fs.Duration("retry", 0, "re-issue unsatisfied queries after this timeout with exponential backoff (0 = off)"),
		RetryMax:   fs.Int("retry-max", 0, "max query retry attempts (0 = default)"),
		Failover:   fs.Bool("ncl-failover", false, "redirect pushes/queries from crashed NCLs to the next-ranked live node"),
		PushBudget: fs.Int("push-budget", 0, "abandon a pending push after this many attempts (0 = retry forever)"),
		Invariants: fs.Bool("invariants", false, "check runtime invariants every sweep and fail on violations (single run)"),
	}
}

// Config assembles the engine configuration from the parsed flags.
func (e *EngineFlags) Config(tr *trace.Trace, fc fault.Config, rec *obs.Recorder) (engine.Config, error) {
	mode, err := ParseResponse(*e.Response)
	if err != nil {
		return engine.Config{}, err
	}
	fc.KillProb = *e.Drop
	return engine.Config{
		Trace:           tr,
		AvgLifetime:     e.TL.Seconds(),
		AvgSizeBits:     *e.Savg * 1e6,
		ZipfExponent:    *e.Zipf,
		K:               *e.K,
		Seed:            *e.Seed,
		BufferMinBits:   *e.BufMin * 1e6,
		BufferMaxBits:   *e.BufMax * 1e6,
		Fault:           fc,
		QueryRetrySec:   e.Retry.Seconds(),
		QueryRetryMax:   *e.RetryMax,
		NCLFailover:     *e.Failover,
		PushRetryBudget: *e.PushBudget,
		CheckInvariants: *e.Invariants,
		Response:        mode,
		Obs:             rec,
	}, nil
}

// ParseResponse maps a -response flag value to its scheme mode.
func ParseResponse(s string) (scheme.ResponseMode, error) {
	switch strings.ToLower(s) {
	case "global":
		return scheme.ResponseGlobal, nil
	case "sigmoid":
		return scheme.ResponseSigmoid, nil
	case "always":
		return scheme.ResponseAlways, nil
	default:
		return 0, fmt.Errorf("unknown response mode %q", s)
	}
}

// Digestable strips the pointer fields off a config so its %+v
// rendering — and therefore the manifest's config digest — is stable
// across runs.
func Digestable(c engine.Config) engine.Config {
	c.Trace = nil
	c.Knowledge = nil
	c.Stream = nil
	c.Obs = nil
	return c
}

// ObsFlags wire the observability layer: run-trace destination,
// flight-recorder ring, sampling and the end-of-run summary.
type ObsFlags struct {
	TraceOut *string
	FlightN  *int
	SampleN  *int
	Summary  *bool
}

// AddObsFlags registers -trace-out, -flight-recorder, -trace-sample and
// -obs-summary on fs.
func AddObsFlags(fs *flag.FlagSet) *ObsFlags {
	return &ObsFlags{
		TraceOut: fs.String("trace-out", "", "record the NDJSON run-trace to this `file` ('-' for stdout)"),
		FlightN:  fs.Int("flight-recorder", 0, "keep only the last `n` trace events in a ring (dumped to -trace-out at the end, or to stderr on error)"),
		SampleN:  fs.Int("trace-sample", 1, "record one of every `n` trace events"),
		Summary:  fs.Bool("obs-summary", false, "print observability counters and phase timings to stderr"),
	}
}

// WALFlags configures the dtnserved write-ahead log: where live ops
// are journaled, how eagerly the file is fsynced, and how often a
// checkpoint record pins the replay state.
type WALFlags struct {
	Path            *string
	Sync            *string
	CheckpointEvery *int
}

// AddWALFlags registers -wal, -wal-sync and -wal-checkpoint on fs.
func AddWALFlags(fs *flag.FlagSet) *WALFlags {
	return &WALFlags{
		Path: fs.String("wal", "", "journal live ops to this write-ahead log `file`; on restart the engine is restored by replaying it"),
		Sync: fs.String("wal-sync", "checkpoint", "WAL fsync policy: none, checkpoint or always"),
		CheckpointEvery: fs.Int("wal-checkpoint", 1024,
			"ops between WAL checkpoint records (0 = checkpoint only on clean shutdown)"),
	}
}

// Enabled reports whether any observability output was requested.
func (o *ObsFlags) Enabled() bool {
	return *o.TraceOut != "" || *o.FlightN > 0 || *o.Summary
}

// NewRecorder builds the recorder the flags describe: a flight-recorder
// ring when -flight-recorder is set, else a stream sink on -trace-out,
// optionally sampled, with phase timers on the injected wall clock. It
// returns nil (with no error) when Enabled is false. With a ring sink
// the caller dumps the ring itself (see DumpRing); with a stream sink
// the caller should record the manifest as the first line.
func (o *ObsFlags) NewRecorder() (rec *obs.Recorder, ring *obs.RingSink, err error) {
	if !o.Enabled() {
		return nil, nil, nil
	}
	var sink obs.Sink
	switch {
	case *o.FlightN > 0:
		ring = obs.NewRingSink(*o.FlightN)
		sink = ring
	case *o.TraceOut != "":
		w, werr := OpenTraceOut(*o.TraceOut)
		if werr != nil {
			return nil, nil, werr
		}
		sink = obs.NewStreamSink(w)
	}
	if sink != nil && *o.SampleN > 1 {
		sink = obs.NewSampleSink(sink, *o.SampleN)
	}
	return obs.NewRecorder(sink, obs.WithPhases(obs.NewPhases(WallClock))), ring, nil
}

// OpenTraceOut opens the run-trace destination; "-" selects stdout
// (left open for any report that follows).
func OpenTraceOut(path string) (io.Writer, error) {
	if path == "-" {
		return struct{ io.Writer }{os.Stdout}, nil
	}
	return os.Create(path)
}

// DumpRing writes the manifest line followed by the ring's retained
// events to w, closing w if it is a Closer.
func DumpRing(w io.Writer, m obs.Manifest, ring *obs.RingSink) error {
	if _, err := w.Write(append(m.AppendJSON(nil), '\n')); err != nil {
		return err
	}
	if err := ring.Dump(w); err != nil {
		return err
	}
	if c, ok := w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// DumpRingErr prints the flight-recorder contents to stderr on the
// failure path: a context line, the manifest and the retained events.
func DumpRingErr(m obs.Manifest, ring *obs.RingSink) {
	fmt.Fprintf(os.Stderr, "flight recorder: last %d of %d events\n",
		ring.Len(), ring.Len()+int(ring.Dropped()))
	os.Stderr.Write(append(m.AppendJSON(nil), '\n'))
	_ = ring.Dump(os.Stderr)
}

// WriteReportJSON renders a bare metric report as indented JSON — the
// one encoding shared by dtnsim -report-json, the dtnserved /report
// endpoint and dtnload -report-out, so the serve-smoke gate can
// byte-compare them.
func WriteReportJSON(w io.Writer, rep metrics.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
