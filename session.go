package edtrace

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
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
	// analysis. Both are always non-nil (empty when nothing was captured).
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

// sessionMetrics instruments one Run when WithMetrics was given; a nil
// receiver (no registry) makes every method a no-op, so the uninstru-
// mented hot path pays only a nil check per batch.
//
// Every edsession_* series reads its one owner at scrape time: the frame
// counts the capture's ledger, the rest what the consumer goroutine
// publishes after each batch (the pipeline, its anonymisation tables and
// the dataset writer are only safe from that goroutine). A later session
// on the same registry re-points the series at its own.
type sessionMetrics struct {
	pipe                                                                *core.Pipeline
	dw                                                                  *dataset.Writer // nil without WithDataset
	anonClients, anonFiles, clientTableBytes, fileTableBytes, maxBucket *obs.Gauge
	// The callbacks outlive the run in the registry, so they hold these
	// and not the session's tables.
	pub *published
}

// published is what the consumer publishes for scrapes.
type published struct {
	batches, records, chunks atomic.Uint64
	sealNanos, sealMaxNanos  atomic.Int64
}

func newSessionMetrics(reg *obs.Registry, q *frameQueue, pipe *core.Pipeline, dw *dataset.Writer) *sessionMetrics {
	if reg == nil {
		return nil
	}
	sm := &sessionMetrics{
		pipe:             pipe,
		anonClients:      reg.Gauge("edsession_anonymizer_clients", "distinct clientIDs anonymised so far"),
		anonFiles:        reg.Gauge("edsession_anonymizer_files", "distinct fileIDs anonymised so far"),
		clientTableBytes: reg.Gauge("edsession_anonymizer_client_table_bytes", "clientID table footprint, estimated from the clients it holds"),
		fileTableBytes:   reg.Gauge("edsession_anonymizer_file_table_bytes", "fileID table live capacity: directory, bucket headers and slots (not the heap spans it keeps in use)"),
		maxBucket:        reg.Gauge("edsession_anonymizer_max_bucket", "largest fileID anonymisation array (the paper's Figure 3 annotation)"),
		dw:               dw,
		pub:              new(published),
	}
	l, pub := &q.ledger, sm.pub
	reg.CounterFunc("edsession_frames_total", "frames processed by the pipeline stage", l.Captured)
	for r := range pcap.NumReasons {
		reg.CounterFunc("edsession_dropped_frames_total", "frames not processed, by reason",
			func() uint64 { return l.Dropped(r) }, obs.L("reason", r.String()))
	}
	reg.CounterFunc("edsession_records_total", "anonymised records emitted", pub.records.Load)
	reg.CounterFunc("edsession_batches_total", "frame batches consumed from the queue", pub.batches.Load)
	reg.CounterFunc("edsession_dataset_chunks_total", "dataset chunks sealed", pub.chunks.Load)
	// What writing the dataset cost the consumer: a segment's compression
	// at a time for an in-process source, waiting for the background
	// compressor for an offline one. While a stall lasts, the frame queue
	// is not drained.
	reg.GaugeFunc("edsession_dataset_seal_seconds_total", "time the record path spent compressing dataset text or waiting for the compressor",
		func() float64 { return time.Duration(pub.sealNanos.Load()).Seconds() })
	reg.GaugeFunc("edsession_dataset_seal_max_seconds", "longest single stall of the record path compressing dataset text or waiting for the compressor",
		func() float64 { return time.Duration(pub.sealMaxNanos.Load()).Seconds() })
	reg.GaugeFunc("edsession_queue_batches", "full frame batches waiting between source and pipeline",
		func() float64 { return float64(len(q.batches)) })
	reg.GaugeFunc("edsession_queue_capacity_batches", "frame queue capacity in batches, the one being filled included",
		func() float64 { return float64(cap(q.batches) + 1) })
	return sm
}

// batchDone counts one consumed batch and publishes the records the
// pipeline has emitted and the state of its anonymisation tables.
func (sm *sessionMetrics) batchDone() {
	if sm == nil {
		return
	}
	sm.pub.batches.Add(1)
	sm.pub.records.Store(sm.pipe.Stats().Records)
	ca, fa := sm.pipe.ClientAnonymizer(), sm.pipe.FileAnonymizer()
	sm.anonClients.Set(int64(ca.Count()))
	sm.anonFiles.Set(int64(fa.Count()))
	sm.clientTableBytes.Set(int64(ca.MemoryBytes()))
	sm.fileTableBytes.Set(int64(fa.MemoryBytes()))
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
	sm.pub.chunks.Store(st.Chunks)
	sm.pub.sealNanos.Store(int64(st.Total))
	sm.pub.sealMaxNanos.Store(int64(st.Max))
}

// Session runs one capture: a Source streams timestamped ethernet frames
// through one bounded queue into the decode → anonymise → store pipeline
// (the paper's Figure 1), with figures, dataset storage, pcap teeing and
// progress reporting attached via options.
//
// The source and the pipeline run concurrently; the queue bounds how far
// the source may run ahead of the decoder: an offline source waits for
// room, a live one drops (see frameQueue). The pipeline is one goroutine:
// the paper's order-of-appearance anonymisation makes the record commit
// serial by construction. A Session is single-use: build one per run.
type Session struct {
	src Source
	sim *SimSource // src, when it is a simulation (nil otherwise)
	o   sessionOptions
	ran atomic.Bool

	// Per-run state: setup builds it, the steps below share it.
	pipe         *core.Pipeline
	collector    *analysis.Collector
	tee          *pcap.Writer
	dsBackground bool // whether the dataset writer compresses in background, from the source
	sm           *sessionMetrics
	q            *frameQueue // source → consumer, and the capture's ledger
	firstT       simtime.Time
	lastT        simtime.Time
	// origin is second 0 of the ledger's series (see second).
	origin simtime.Time
}

// maxGapSeconds bounds how far one frame of an offline source can
// stretch the per-second series. Its timestamps are the input's (a pcap
// stores 32-bit seconds), and a clock that jumps — an unset RTC in a
// merged capture, a forged header — must not size the series: a frame
// more than this past the last counted second counts in the next one,
// and the frames after it follow on from there.
const maxGapSeconds = 60

// NewSession builds a session over src with the given options.
func NewSession(src Source, opts ...Option) *Session {
	s := &Session{src: src}
	s.sim, _ = src.(*SimSource)
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
	// The producer's unflushed batch and the batches still queued when
	// the consumer gave up; on success both are empty, so this is free.
	s.abort(s.q.open.items)
	for batch := range s.q.batches {
		s.abort(batch.items)
	}
	if pipeErr != nil {
		return nil, pipeErr
	}
	if perr != nil {
		return nil, perr
	}
	return s.report(start), nil
}

// setup builds the frame queue and the record path (sinks, pipeline,
// pcap tee). It returns the closers of what it opened, in opening order —
// also when it fails part-way, so Run closes exactly what exists.
func (s *Session) setup() (closers []func() error, err error) {
	serverIP, bytePair, err := s.pipelineConfig()
	if err != nil {
		return nil, err
	}
	if ls, ok := s.src.(liveSource); ok {
		if s.q, err = ls.liveQueue(); err != nil {
			return nil, err
		}
	} else {
		s.q = newFrameQueue(queueFrames, false)
	}
	sinks := append([]core.RecordSink(nil), s.o.sinks...)
	if s.o.figures {
		s.collector = analysis.NewCollector()
		sinks = append(sinks, s.collector)
	}
	if s.sim != nil {
		s.sim.drops, s.sim.reg = &s.q.ledger, s.o.metrics
	}
	var dw *dataset.Writer
	if s.o.datasetDir != "" {
		// An offline source leaves the other CPUs idle: compression goes
		// to one of them. A live one shares them with its daemon, and
		// compresses on the consumer, a segment at a time.
		s.dsBackground = !s.q.live
		var werr error
		dw, werr = dataset.NewWriter(s.o.datasetDir, dataset.WriterOptions{
			Compress:   s.o.datasetGzip,
			Background: s.dsBackground,
			Meta:       s.datasetMeta(serverIP),
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
	s.pipe = core.NewPipeline(serverIP, bytePair, sink)
	if s.o.pcapTee != "" {
		closeTee, err := s.openTee()
		if err != nil {
			return closers, err
		}
		closers = append(closers, closeTee)
	}
	s.sm = newSessionMetrics(s.o.metrics, s.q, s.pipe, dw)
	return closers, nil
}

// datasetMeta is the manifest's free-form header: what was captured,
// and for a simulated capture the world that reproduces it.
func (s *Session) datasetMeta(serverIP uint32) map[string]string {
	meta := map[string]string{
		"server_ip": strconv.FormatUint(uint64(serverIP), 10),
	}
	if sim := s.sim; sim != nil {
		meta["seed"] = strconv.FormatUint(sim.Config.Workload.Seed, 10)
		meta["clients"] = strconv.Itoa(sim.Config.Workload.NumClients)
		meta["files"] = strconv.Itoa(sim.Config.Workload.NumFiles)
	}
	return meta
}

// produce runs the source until it ends, then closes the queue. An
// offline source's frames are batched into the queue here; a live source
// fills it itself, and its Frames only waits for the end of the capture.
// The last partial batch is flushed at the end (left for Run to drop
// after a failure), so batching never loses frames; it can delay them (a
// trickling live source holds up to batchSize-1 frames until the batch
// fills).
func (s *Session) produce(ctx context.Context) error {
	q := s.q
	err := s.src.Frames(ctx, func(t simtime.Time, frame []byte) error {
		// Emitting transfers the frame: it is batched before anything can
		// fail, so a refused frame is dropped, not lost from the count.
		q.open.items = append(q.open.items, frameItem{t, frame})
		if len(q.open.items) < q.size {
			return ctx.Err()
		}
		return q.flush(ctx)
	})
	q.shut()
	if err == nil {
		err = q.flush(ctx)
	}
	close(q.batches)
	return err
}

// consume is the pipeline stage: it commits queued frames in capture
// order until the queue closes (nil), a frame fails, or ctx is cancelled.
func (s *Session) consume(ctx context.Context) error {
	var lastExpire simtime.Time
	for {
		select {
		case batch, ok := <-s.q.batches:
			if !ok {
				return nil
			}
			for i, f := range batch.items {
				if err := s.commit(f); err != nil {
					s.abort(batch.items[i:])
					return err
				}
				if f.t-lastExpire > simtime.Minute {
					s.pipe.ExpireReassembly(f.t)
					lastExpire = f.t
				}
				if n := s.q.ledger.Captured(); s.o.progress != nil && n%s.o.progressEvery == 0 {
					s.o.progress(Progress{Frames: n, Records: s.pipe.Stats().Records, T: f.t})
				}
			}
			s.q.recycle(batch)
			s.sm.batchDone()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// commit takes one frame through the pipeline: pcap tee, decode →
// anonymise → store, count. A frame that fails is not counted; the caller
// drops it. Every frame that enters the queue leaves the session through
// commit or abort, exactly once, so processed + dropped == offered holds
// on every exit path.
func (s *Session) commit(f frameItem) error {
	if s.tee != nil {
		if err := s.tee.Write(pcap.RecordAt(f.t, f.data)); err != nil {
			return err
		}
	}
	if err := s.pipe.ProcessFrame(f.t, f.data); err != nil {
		return err
	}
	if s.q.ledger.Captured() == 0 {
		s.firstT = f.t
		if s.sim == nil && !s.q.live {
			s.origin = f.t
		}
	}
	s.lastT = f.t
	s.q.ledger.Capture(s.second(f.t))
	return nil
}

// abort counts frames abandoned by an error or cancellation.
func (s *Session) abort(frames []frameItem) {
	for _, f := range frames {
		s.q.ledger.Drop(s.second(f.t), pcap.Aborted)
	}
}

// second places a frame stamped t in the ledger's series. A simulation
// and a live queue stamp frames on clocks that start at 0, the clocks
// their drops are counted by, so their series starts there too. Any
// other source's timestamps are input: its series starts at its first
// frame, and maxGapSeconds cuts the jumps in it. A frame stamped before
// the origin (a replayed capture's clock stepping back) counts in the
// first second.
func (s *Session) second(t simtime.Time) int {
	sec := max(int((t-s.origin)/simtime.Second), 0)
	if n := s.q.ledger.Seconds(); s.sim == nil && !s.q.live && sec > n+maxGapSeconds {
		s.origin += simtime.Time(sec-n) * simtime.Second
		sec = n
	}
	return sec
}

// report assembles the Result of a run that consumed its whole source:
// the ledger's account is the capture layer, and a simulation adds its
// world's.
func (s *Session) report(start time.Time) *Result {
	pipe := s.pipe
	per, captured, dropped := s.q.ledger.Account()
	if s.o.progress != nil {
		s.o.progress(Progress{Frames: captured, Records: pipe.Stats().Records, T: s.lastT})
	}
	rep := &core.Report{
		WallClock:        time.Since(start),
		Pipeline:         pipe.Stats(),
		DistinctClients:  pipe.ClientAnonymizer().Count(),
		DistinctFiles:    pipe.FileAnonymizer().Count(),
		BucketSizes:      pipe.FileAnonymizer().BucketSizes(),
		EthernetCaptured: captured,
		EthernetDropped:  dropped,
		LossPerSecond:    per,
		VirtualDuration:  s.lastT - s.firstT,
	}
	rep.MaxBucketIdx, rep.MaxBucketSize = pipe.FileAnonymizer().MaxBucket()
	s.sim.reportWorld(rep)
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
