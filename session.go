package edtrace

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"edtrace/internal/analysis"
	"edtrace/internal/anonymize"
	"edtrace/internal/core"
	"edtrace/internal/dataset"
	"edtrace/internal/obs"
	"edtrace/internal/pcap"
	"edtrace/internal/simtime"
	"edtrace/internal/xmlenc"
)

// Result bundles everything a capture session produces, uniformly across
// the three capture modes.
type Result struct {
	// Report carries the headline counters (the paper's abstract/§2).
	// World-layer fields (server and swarm statistics) are only filled by
	// SimSource runs; pcap replay and live capture leave them zero.
	Report *core.Report
	// Figures are the regenerated distributions (nil unless WithFigures
	// was given).
	Figures *analysis.Figures
	// Fig2 is the capture-loss series; Fig3 the anonymisation-bucket
	// analysis. Both are always non-nil (empty when the source tracks no
	// losses).
	Fig2 *analysis.Fig2
	Fig3 *analysis.Fig3
}

// teeSink fans records out to several sinks.
type teeSink struct{ sinks []core.RecordSink }

func (t teeSink) Write(r *xmlenc.Record) error {
	for _, s := range t.sinks {
		if err := s.Write(r); err != nil {
			return err
		}
	}
	return nil
}

// frameItem is one frame in flight between the source and the pipeline.
type frameItem struct {
	t    simtime.Time
	data []byte
}

// sessionMetrics instruments one Run when WithMetrics was given; a nil
// receiver (no registry) makes every method a no-op, so the uninstru-
// mented hot path pays only a nil check per frame.
type sessionMetrics struct {
	frames      *obs.Counter
	records     *obs.Counter
	batches     *obs.Counter
	dropped     *obs.Counter
	lastRecords uint64
	pipe        *core.Pipeline
	// The anonymisation tables belong to the consumer goroutine, so it
	// publishes their sizes itself (batchDone) instead of lending them to
	// a scrape-time callback.
	anonClients, anonFiles, clientTableBytes, maxBucket *obs.Gauge
	// The dataset writer's seal accounting belongs to that goroutine too
	// (sealsDone); dw is nil without WithDataset. Seconds are not
	// integers, so scrapes read them through callbacks over these atomics.
	dw                      *dataset.Writer
	chunks                  *obs.Counter
	lastChunks              uint64
	sealNanos, sealMaxNanos *atomic.Int64
}

func newSessionMetrics(reg *obs.Registry, frames chan []frameItem, depth, batchSize int, pipe *core.Pipeline, dw *dataset.Writer) *sessionMetrics {
	if reg == nil {
		return nil
	}
	sm := &sessionMetrics{
		frames:  reg.Counter("edsession_frames_total", "frames processed by the pipeline stage"),
		records: reg.Counter("edsession_records_total", "anonymised records emitted"),
		batches: reg.Counter("edsession_batches_total", "frame batches consumed from the queue"),
		dropped: reg.Counter("edsession_dropped_frames_total", "frames dropped by cancellation or a pipeline error"),
		pipe:    pipe,

		anonClients:      reg.Gauge("edsession_anonymizer_clients", "distinct clientIDs anonymised so far"),
		anonFiles:        reg.Gauge("edsession_anonymizer_files", "distinct fileIDs anonymised so far"),
		clientTableBytes: reg.Gauge("edsession_anonymizer_client_table_bytes", "clientID table footprint: directory plus materialised pages"),
		maxBucket:        reg.Gauge("edsession_anonymizer_max_bucket", "largest fileID anonymisation array (the paper's Figure 3 annotation)"),

		dw:           dw,
		chunks:       reg.Counter("edsession_dataset_chunks_total", "dataset chunks sealed"),
		sealNanos:    new(atomic.Int64),
		sealMaxNanos: new(atomic.Int64),
	}
	// What sealing those chunks cost the consumer: one chunk's compression
	// each for an in-process source, back-pressure from busy workers for an
	// offline one. While a seal lasts, the frame queue is not drained. The
	// callbacks outlive the run in the registry, so they hold the two
	// counters and not the session's tables.
	sealNanos, sealMaxNanos := sm.sealNanos, sm.sealMaxNanos
	reg.GaugeFunc("edsession_dataset_seal_seconds_total", "time the record path spent sealing dataset chunks",
		func() float64 { return time.Duration(sealNanos.Load()).Seconds() })
	reg.GaugeFunc("edsession_dataset_seal_max_seconds", "longest single stall of the record path sealing a dataset chunk",
		func() float64 { return time.Duration(sealMaxNanos.Load()).Seconds() })
	// Queue gauges are read callbacks over this session's channel; a
	// later session on the same registry re-points them at its own.
	reg.GaugeFunc("edsession_queue_batches", "frame batches waiting between source and pipeline",
		func() float64 { return float64(len(frames)) })
	reg.GaugeFunc("edsession_queue_capacity_batches", "frame queue capacity in batches",
		func() float64 { return float64(depth) })
	cFrames, cBatches := sm.frames, sm.batches
	reg.GaugeFunc("edsession_batch_fill_ratio", "mean frames per consumed batch over the batch size",
		func() float64 {
			b := cBatches.Value()
			if b == 0 {
				return 0
			}
			return float64(cFrames.Value()) / float64(b) / float64(batchSize)
		})
	return sm
}

// frameDone counts one processed frame.
func (sm *sessionMetrics) frameDone() {
	if sm != nil {
		sm.frames.Inc()
	}
}

// batchDone counts one consumed batch and folds in the records the
// pipeline emitted for it and the state of its anonymisation tables (the
// pipeline is only safe from this goroutine, so atomics carry the values
// to concurrent scrapes).
func (sm *sessionMetrics) batchDone() {
	if sm == nil {
		return
	}
	sm.batches.Inc()
	rec := sm.pipe.Stats().Records
	sm.records.Add(rec - sm.lastRecords)
	sm.lastRecords = rec
	ca, fa := sm.pipe.ClientAnonymizer(), sm.pipe.FileAnonymizer()
	sm.anonClients.Set(int64(ca.Count()))
	sm.anonFiles.Set(int64(fa.Count()))
	sm.clientTableBytes.Set(int64(ca.MemoryBytes()))
	_, size := fa.MaxBucket()
	sm.maxBucket.Set(int64(size))
	sm.sealsDone()
}

// sealsDone publishes the dataset writer's seal accounting: after each
// batch, and once more after Close has sealed the last chunk.
func (sm *sessionMetrics) sealsDone() {
	if sm == nil || sm.dw == nil {
		return
	}
	st := sm.dw.SealStats()
	sm.chunks.Add(st.Chunks - sm.lastChunks)
	sm.lastChunks = st.Chunks
	sm.sealNanos.Store(int64(st.Total))
	sm.sealMaxNanos.Store(int64(st.Max))
}

// drop counts frames abandoned mid-batch by an error or cancellation.
func (sm *sessionMetrics) drop(n int) {
	if sm != nil && n > 0 {
		sm.dropped.Add(uint64(n))
	}
}

// frameReleaser is implemented by sources that pool their frame buffers
// (LiveSource, and ServerSource, which embeds it); the session hands
// each frame back after its final use so Mirror can re-encode into it.
type frameReleaser interface{ releaseFrame([]byte) }

// The source may run queueDepth frames ahead of the pipeline, handed over
// batchSize at a time: one channel operation amortised over a batch is
// what keeps the channel hop out of the per-frame cost (measured by
// BenchmarkSessionPipeline against BenchmarkPipeline). The in-flight
// window also includes the producer's partial batch and the batch the
// consumer is processing: up to queueDepth + 2×batchSize frames.
const (
	queueDepth = 1024
	batchSize  = 128
)

// Session runs one capture: a Source streams timestamped ethernet frames
// through a bounded channel into the decode → anonymise → store pipeline
// (the paper's Figure 1), with figures, dataset storage, pcap teeing and
// progress reporting attached via options.
//
// The source and the pipeline run concurrently; the channel bounds how
// far the source may run ahead of the decoder, giving natural
// backpressure. The pipeline is one goroutine: the paper's
// order-of-appearance anonymisation makes the record commit serial by
// construction. A Session is single-use: build one per run.
type Session struct {
	src Source
	o   sessionOptions
	ran atomic.Bool

	queueDepth, batchSize int // the constants above; tests shrink them

	// Per-run state: setup builds it, the steps below share it.
	pipe      *core.Pipeline
	collector *analysis.Collector
	tee       *pcap.Writer
	dsWorkers int           // dataset writer's background width, from the source
	rel       frameReleaser // nil unless the source pools its buffers
	sm        *sessionMetrics
	frames    chan []frameItem // producer → consumer
	free      chan []frameItem // consumed batch slices, back to the producer
	nframes   uint64
	lastT     simtime.Time
}

// NewSession builds a session over src with the given options.
func NewSession(src Source, opts ...Option) *Session {
	s := &Session{src: src, queueDepth: queueDepth, batchSize: batchSize}
	s.o.progressEvery = 8192
	for _, opt := range opts {
		opt(&s.o)
	}
	return s
}

// Run executes the session until the source is exhausted, ctx is
// cancelled, or a stage fails. On every exit path — success, error, or
// cancellation — the dataset writer and pcap tee are flushed and closed,
// so a partial capture is still a valid dataset. Exactly one of the
// result and the error is non-nil.
func (s *Session) Run(ctx context.Context) (res *Result, err error) {
	if s.src == nil {
		return nil, errors.New("edtrace: session has no source")
	}
	if s.ran.Swap(true) {
		return nil, errors.New("edtrace: session already ran")
	}
	closers, err := s.setup()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			if cerr := closers[i](); cerr != nil {
				err = errors.Join(err, cerr)
			}
		}
		// If a flush fails, the caller gets (nil, err), never a result
		// whose dataset is not durably on disk.
		if err != nil {
			res = nil
		}
	}()
	if err != nil {
		return nil, err
	}

	// runCtx stops the producer when the user cancels or the consumer
	// gives up; after a clean end the cancel is a no-op.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	prodErr := make(chan error, 1)
	go func() { prodErr <- s.produce(runCtx) }()

	start := time.Now()
	pipeErr := s.consume(ctx)
	cancel()
	perr := <-prodErr
	// Batches still queued when the consumer gave up; on success the
	// channel is closed and empty, so this is free.
	for batch := range s.frames {
		s.abandon(batch)
	}
	if pipeErr != nil {
		return nil, pipeErr
	}
	if perr != nil {
		return nil, perr
	}
	return s.report(start), nil
}

// setup builds the record path (sinks, pipeline, pcap tee) and the frame
// queue. It returns the closers of what it opened, in opening order —
// also when it fails part-way, so Run closes exactly what exists.
func (s *Session) setup() (closers []func() error, err error) {
	serverIP, bytePair, err := s.pipelineConfig()
	if err != nil {
		return nil, err
	}
	sinks := append([]core.RecordSink(nil), s.o.sinks...)
	if s.o.figures {
		s.collector = analysis.NewCollector()
		sinks = append(sinks, s.collector)
	}
	// A capture of several servers stamps each record with the name of
	// the server whose dialog it belongs to.
	var servers map[uint32]string
	if ss, ok := s.src.(*ServerSource); ok {
		servers = ss.names
	}
	var dw *dataset.Writer
	if s.o.datasetDir != "" {
		// An offline source leaves the other CPUs idle: chunk compression
		// goes to them. An in-process one shares them with its daemon.
		s.dsWorkers = runtime.GOMAXPROCS(0)
		if _, ok := s.src.(processSharer); ok {
			s.dsWorkers = 0
		}
		var werr error
		dw, werr = dataset.NewWriter(s.o.datasetDir, dataset.WriterOptions{
			Compress: s.o.datasetGzip,
			Workers:  s.dsWorkers,
			Meta:     s.datasetMeta(serverIP, servers),
		})
		if werr != nil {
			return nil, werr
		}
		sinks = append(sinks, dw)
		closers = append(closers, func() error {
			dw.SetCounters(s.pipe.ClientAnonymizer().Count(), s.pipe.FileAnonymizer().Count())
			cerr := dw.Close()
			s.sm.sealsDone()
			if cerr != nil {
				return fmt.Errorf("edtrace: closing dataset: %w", cerr)
			}
			return nil
		})
	}
	var sink core.RecordSink
	switch len(sinks) {
	case 0:
		sink = core.DiscardSink{}
	case 1:
		sink = sinks[0]
	default:
		sink = teeSink{sinks}
	}
	if servers != nil {
		s.pipe = core.NewPipelineMulti(servers, bytePair, sink)
	} else {
		s.pipe = core.NewPipeline(serverIP, bytePair, sink)
	}
	if s.o.pcapTee != "" {
		closeTee, err := s.openTee()
		if err != nil {
			return closers, err
		}
		closers = append(closers, closeTee)
	}

	depth := (s.queueDepth + s.batchSize - 1) / s.batchSize
	s.frames = make(chan []frameItem, depth)
	// Batch slices cycle producer → consumer → freelist → producer, so the
	// steady state allocates no slice headers or backing arrays per batch.
	s.free = make(chan []frameItem, depth+2)
	s.sm = newSessionMetrics(s.o.metrics, s.frames, depth, s.batchSize, s.pipe, dw)
	s.rel, _ = s.src.(frameReleaser)
	return closers, nil
}

// datasetMeta is the manifest's free-form header: what was captured,
// and for a simulated capture the world that reproduces it.
func (s *Session) datasetMeta(serverIP uint32, servers map[uint32]string) map[string]string {
	meta := map[string]string{
		"server_ip": strconv.FormatUint(uint64(serverIP), 10),
	}
	if servers != nil {
		names := make([]string, 0, len(servers))
		for _, n := range servers {
			names = append(names, n)
		}
		sort.Strings(names)
		meta["servers"] = strings.Join(names, ",")
	}
	if sim, ok := s.src.(*SimSource); ok {
		meta["seed"] = strconv.FormatUint(sim.Config.Workload.Seed, 10)
		meta["clients"] = strconv.Itoa(sim.Config.Workload.NumClients)
		meta["files"] = strconv.Itoa(sim.Config.Workload.NumFiles)
	}
	return meta
}

// produce runs the source, batching its frames into the queue, and
// closes the queue when the source ends. A partial batch is flushed at
// the end of the stream, so batching never loses frames; it can delay
// them (a trickling live source holds up to batchSize-1 frames until the
// next flush).
func (s *Session) produce(ctx context.Context) error {
	defer close(s.frames)
	batch := s.getBatch()
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		select {
		case s.frames <- batch:
			batch = s.getBatch()
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	err := s.src.Frames(ctx, func(t simtime.Time, frame []byte) error {
		// Emitting transfers the frame: it is batched before anything can
		// fail, so a refused frame is abandoned, not lost from the count.
		batch = append(batch, frameItem{t, frame})
		if len(batch) < s.batchSize {
			return ctx.Err()
		}
		return flush()
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		s.abandon(batch) // the unflushed partial batch never reaches the consumer
	}
	return err
}

func (s *Session) getBatch() []frameItem {
	select {
	case b := <-s.free:
		return b
	default:
		return make([]frameItem, 0, s.batchSize)
	}
}

func (s *Session) putBatch(b []frameItem) {
	clear(b) // stale frame pointers must not pin source buffers
	select {
	case s.free <- b[:0]:
	default:
	}
}

// consume is the pipeline stage: it commits queued frames in capture
// order until the queue closes (nil), a frame fails, or ctx is cancelled.
func (s *Session) consume(ctx context.Context) error {
	var lastExpire simtime.Time
	for {
		select {
		case batch, ok := <-s.frames:
			if !ok {
				return nil
			}
			for i, f := range batch {
				if err := s.commit(f); err != nil {
					s.abandon(batch[i:])
					return err
				}
				if f.t-lastExpire > simtime.Minute {
					s.pipe.ExpireReassembly(f.t)
					lastExpire = f.t
				}
				if s.o.progress != nil && s.nframes%s.o.progressEvery == 0 {
					s.o.progress(Progress{Frames: s.nframes, Records: s.pipe.Stats().Records, T: f.t})
				}
			}
			s.putBatch(batch)
			s.sm.batchDone()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// commit takes one frame through the pipeline: pcap tee, decode →
// anonymise → store, buffer release, count. A frame that fails is not
// counted and keeps its buffer; the caller abandons it. Every frame the
// source emits leaves the session through commit or abandon, exactly
// once, so processed + dropped == emitted holds on every exit path.
func (s *Session) commit(f frameItem) error {
	if s.tee != nil {
		if err := s.tee.Write(pcap.RecordAt(f.t, f.data)); err != nil {
			return err
		}
	}
	if err := s.pipe.ProcessFrame(f.t, f.data); err != nil {
		return err
	}
	if s.rel != nil {
		s.rel.releaseFrame(f.data)
	}
	s.nframes++
	s.lastT = f.t
	s.sm.frameDone()
	return nil
}

// abandon disposes of frames that will not be processed (a failure or a
// cancellation got there first): each is a capture drop, and its buffer
// goes back to a pooling source. Safe from the producer goroutine.
func (s *Session) abandon(batch []frameItem) {
	s.sm.drop(len(batch))
	if s.rel == nil {
		return
	}
	for _, f := range batch {
		s.rel.releaseFrame(f.data)
	}
}

// report assembles the Result of a run that consumed its whole source.
func (s *Session) report(start time.Time) *Result {
	pipe := s.pipe
	if s.o.progress != nil {
		s.o.progress(Progress{Frames: s.nframes, Records: pipe.Stats().Records, T: s.lastT})
	}
	rep := &core.Report{
		WallClock:       time.Since(start),
		Pipeline:        pipe.Stats(),
		DistinctClients: pipe.ClientAnonymizer().Count(),
		DistinctFiles:   pipe.FileAnonymizer().Count(),
		BucketSizes:     pipe.FileAnonymizer().BucketSizes(),
	}
	rep.MaxBucketIdx, rep.MaxBucketSize = pipe.FileAnonymizer().MaxBucket()
	if cr, ok := s.src.(captureReporter); ok {
		cr.reportCapture(rep)
	}
	res := &Result{
		Report: rep,
		Fig2:   analysis.NewFig2(rep.LossPerSecond),
		Fig3:   analysis.NewFig3(rep.BucketSizes),
	}
	if s.collector != nil {
		res.Figures = s.collector.Finalize()
	}
	return res
}

// pipelineConfig resolves the pipeline knobs: explicit options win, then
// source-supplied defaults (SimSource knows its own server), then the
// paper's byte pair.
func (s *Session) pipelineConfig() (uint32, [2]int, error) {
	serverIP, bytePair := s.o.serverIP, s.o.bytePair
	haveIP, havePair := s.o.haveServerIP, s.o.haveBytePair
	if pd, ok := s.src.(pipelineDefaulter); ok {
		if dIP, dPair, ok := pd.pipelineDefaults(); ok {
			if !haveIP {
				serverIP = dIP
			}
			if !havePair {
				bytePair = dPair
			}
			haveIP, havePair = true, true
		}
	}
	if !haveIP {
		return 0, [2]int{}, errors.New("edtrace: source does not identify the server; use WithServerIP")
	}
	if !havePair {
		bytePair = anonymize.DefaultBytePair()
	}
	return serverIP, bytePair, nil
}

// openTee opens the WithPcapTee writer as s.tee and returns the function
// that flushes and closes it.
func (s *Session) openTee() (func() error, error) {
	f, err := os.Create(s.o.pcapTee)
	if err != nil {
		return nil, err
	}
	w, err := pcap.NewWriter(f, 0)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.tee = w
	return func() error {
		err := w.Flush()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("edtrace: closing pcap tee: %w", err)
		}
		return nil
	}, nil
}
