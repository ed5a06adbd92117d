package edtrace

import (
	"edtrace/internal/core"
	"edtrace/internal/obs"
	"edtrace/internal/simtime"
)

// Progress is a snapshot of a running session, delivered to the
// WithProgress callback from Session.Run's consumer loop.
type Progress struct {
	// Frames is the number of frames processed so far.
	Frames uint64
	// Records is the number of anonymised records emitted so far.
	Records uint64
	// T is the capture timestamp of the most recent frame.
	T simtime.Time
}

// Option configures a Session.
type Option func(*sessionOptions)

type sessionOptions struct {
	datasetDir    string
	datasetGzip   bool
	figures       bool
	sinks         []core.RecordSink
	progress      func(Progress)
	progressEvery uint64
	pcapTee       string
	serverIP      uint32
	haveServerIP  bool
	bytePair      [2]int
	haveBytePair  bool
	metrics       *obs.Registry
}

// WithDataset streams the anonymised XML dataset to dir; gzip compresses
// the chunk files. The writer is closed (and the manifest written) on
// every exit path, including cancellation and mid-run errors.
//
// Chunk text is compressed and written as it fills, 64 KiB at a time,
// off the record path on one background goroutine — except when the
// source is mirrored by the process it captures (LiveSource,
// ServerSource): there the work stays on the session's goroutine,
// sparing the daemon's CPUs, and the queue fills behind each segment's
// deflate. The files written are the same either way.
func WithDataset(dir string, gzip bool) Option {
	return func(o *sessionOptions) {
		o.datasetDir = dir
		o.datasetGzip = gzip
	}
}

// WithFigures computes the paper's figures online during the run; the
// Result's Figures field is non-nil.
func WithFigures() Option {
	return func(o *sessionOptions) { o.figures = true }
}

// WithSink adds a caller-provided record sink. It may be repeated; every
// sink receives every record, alongside the figure collector and dataset
// writer.
func WithSink(s core.RecordSink) Option {
	return func(o *sessionOptions) {
		if s != nil {
			o.sinks = append(o.sinks, s)
		}
	}
}

// WithProgress invokes fn periodically (every 8192 frames, and once at
// the end of the stream) from the pipeline goroutine. fn must be fast;
// it runs on the hot path.
func WithProgress(fn func(Progress)) Option {
	return func(o *sessionOptions) { o.progress = fn }
}

// WithProgressEvery adjusts the WithProgress cadence to every n frames.
func WithProgressEvery(n uint64) Option {
	return func(o *sessionOptions) {
		if n > 0 {
			o.progressEvery = n
		}
	}
}

// WithPcapTee mirrors every frame the session processes into a pcap file
// at path — the capture-now-decode-later workflow. Replaying the file
// with a PcapSource reproduces the session's record stream exactly.
func WithPcapTee(path string) Option {
	return func(o *sessionOptions) { o.pcapTee = path }
}

// WithServerIP sets the captured server's address, which classifies
// record direction (towards it = query). SimSource supplies this
// automatically; pcap replay and live capture must provide it.
func WithServerIP(ip uint32) Option {
	return func(o *sessionOptions) {
		o.serverIP = ip
		o.haveServerIP = true
	}
}

// WithFileBytePair selects the fileID anonymisation bucket bytes
// (default 5,11 — the paper's fix for the polluted first-two-bytes
// layout).
func WithFileBytePair(a, b int) Option {
	return func(o *sessionOptions) {
		o.bytePair = [2]int{a, b}
		o.haveBytePair = true
	}
}

// WithMetrics publishes the session pipeline's metrics into reg:
// frames/records/batches throughput counters, the queue depth, dropped
// frames by reason (queue_full: the Figure 2 losses, live, of a live
// queue or a simulation's kernel buffer; closed: offered after the
// capture closed; aborted: cancellation or a pipeline error; oversize:
// a live message no UDP datagram can carry), and the anonymisation
// tables' size (distinct clients and files, the clientID table's bytes,
// the largest fileID bucket — Figure 3's diagnostic, live). A SimSource
// adds its world's: the simulated index's edserver_shard_* and
// edserver_index_* gauges and the virtual time reached
// (edsim_virtual_seconds). The frame counters read the capture's ledger,
// which the report and Figure 2 read too, so the three agree. Without it
// the session adds no instrumentation to the hot path. Every series
// describes the most recent session on reg: a later session re-points
// them at its own.
func WithMetrics(reg *obs.Registry) Option {
	return func(o *sessionOptions) { o.metrics = reg }
}
