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
// mented hot path pays only a nil check per frame.
type sessionMetrics struct {
	frames      *obs.Counter
	records     *obs.Counter
	batches     *obs.Counter
	lastRecords uint64
	pipe        *core.Pipeline
	// Drops by reason: aborted as they happen, the queue's from its tally.
	aborted, queueFull, closed *obs.Counter
	lastTally                  tally
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

func newSessionMetrics(reg *obs.Registry, q *frameQueue, pipe *core.Pipeline, dw *dataset.Writer) *sessionMetrics {
	if reg == nil {
		return nil
	}
	dropped := func(reason string) *obs.Counter {
		return reg.Counter("edsession_dropped_frames_total", "frames not processed, by reason", obs.L("reason", reason))
	}
	sm := &sessionMetrics{
		frames:    reg.Counter("edsession_frames_total", "frames processed by the pipeline stage"),
		records:   reg.Counter("edsession_records_total", "anonymised records emitted"),
		batches:   reg.Counter("edsession_batches_total", "frame batches consumed from the queue"),
		aborted:   dropped("aborted"),
		queueFull: dropped("queue_full"),
		closed:    dropped("closed"),
		pipe:      pipe,

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
	// Queue gauges are read callbacks over this session's queue; a later
	// session on the same registry re-points them at its own.
	reg.GaugeFunc("edsession_queue_batches", "full frame batches waiting between source and pipeline",
		func() float64 { return float64(len(q.batches)) })
	reg.GaugeFunc("edsession_queue_capacity_batches", "frame queue capacity in batches, the one being filled included",
		func() float64 { return float64(cap(q.batches) + 1) })
	return sm
}

// frameDone counts one processed frame.
func (sm *sessionMetrics) frameDone() {
	if sm != nil {
		sm.frames.Inc()
	}
}

// batchDone counts one consumed batch and folds in the records the
// pipeline emitted for it, the state of its anonymisation tables (the
// pipeline is only safe from this goroutine, so atomics carry the values
// to concurrent scrapes) and the queue's tally.
func (sm *sessionMetrics) batchDone(t tally) {
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
	sm.queueDrops(t)
}

// queueDrops publishes the queue's drops after each batch, and at the end
// of the run from the tally the report is built from: the two agree.
func (sm *sessionMetrics) queueDrops(t tally) {
	if sm == nil {
		return
	}
	sm.queueFull.Add(t.full - sm.lastTally.full)
	sm.closed.Add(t.late - sm.lastTally.late)
	sm.lastTally = t
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

// drop counts frames abandoned by an error or cancellation.
func (sm *sessionMetrics) drop(n int) {
	if sm != nil && n > 0 {
		sm.aborted.Add(uint64(n))
	}
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
	pipe      *core.Pipeline
	collector *analysis.Collector
	tee       *pcap.Writer
	dsWorkers int // dataset writer's background width, from the source
	sm        *sessionMetrics
	q         *frameQueue // source → consumer
	nframes   uint64
	firstT    simtime.Time
	lastT     simtime.Time
	// perSecond counts processed frames by second since the first, less
	// the seconds cut (see maxGapSeconds): the captured half of Figure 2
	// for every source but SimSource, whose world keeps its own kernel
	// buffer's series.
	perSecond  []pcap.SecondStats
	cutSeconds int
}

// maxGapSeconds bounds how far one frame of an offline source can
// stretch the per-second series. Its timestamps are the input's (a pcap
// stores 32-bit seconds), and a clock that jumps — an unset RTC in a
// merged capture, a forged header — must not size the series: a frame
// more than this past the last counted second counts in the next one,
// and the frames after it follow on from there. A live queue stamps its
// frames with the clock its drops are counted by, so its series is
// never cut (and grows only with the run's wall time).
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
	// Batches still queued when the consumer gave up; on success the
	// channel is closed and empty, so this is free.
	for batch := range s.q.batches {
		s.sm.drop(len(batch))
	}
	tally, drops := s.q.settle()
	s.sm.queueDrops(tally)
	if pipeErr != nil {
		return nil, pipeErr
	}
	if perr != nil {
		return nil, perr
	}
	return s.report(start, tally, drops), nil
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
	// A capture of several servers stamps each record with the name of
	// the server whose dialog it belongs to.
	var servers map[uint32]string
	if ss, ok := s.src.(*ServerSource); ok {
		servers = ss.names
	}
	var dw *dataset.Writer
	if s.o.datasetDir != "" {
		// An offline source leaves the other CPUs idle: chunk compression
		// goes to them. A live one shares them with its daemon.
		if !s.q.live {
			s.dsWorkers = runtime.GOMAXPROCS(0)
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
	s.sm = newSessionMetrics(s.o.metrics, s.q, s.pipe, dw)
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
// The last partial batch is flushed at the end (dropped after a failure),
// so batching never loses frames; it can delay them (a trickling live
// source holds up to batchSize-1 frames until the batch fills).
func (s *Session) produce(ctx context.Context) error {
	q := s.q
	err := s.src.Frames(ctx, func(t simtime.Time, frame []byte) error {
		// Emitting transfers the frame: it is batched before anything can
		// fail, so a refused frame is dropped, not lost from the count.
		q.open = append(q.open, frameItem{t, frame})
		if len(q.open) < q.size {
			return ctx.Err()
		}
		return q.flush(ctx)
	})
	q.shut()
	if err == nil {
		err = q.flush(ctx)
	}
	if err != nil {
		s.sm.drop(len(q.open))
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
			for i, f := range batch {
				if err := s.commit(f); err != nil {
					s.sm.drop(len(batch) - i)
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
			s.q.recycle(batch)
			s.sm.batchDone(s.q.account())
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// commit takes one frame through the pipeline: pcap tee, decode →
// anonymise → store, count. A frame that fails is not counted; the caller
// drops it. Every frame that enters the queue leaves the session through
// commit or a drop, exactly once, so processed + dropped == offered holds
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
	if s.nframes == 0 {
		s.firstT = f.t
	}
	s.nframes++
	s.lastT = f.t
	if s.sim == nil {
		// A frame stamped before the first (a replayed capture's clock
		// stepping back) counts in the first second.
		sec := max(int((f.t-s.firstT)/simtime.Second)-s.cutSeconds, 0)
		if n := len(s.perSecond); !s.q.live && sec > n+maxGapSeconds {
			s.cutSeconds += sec - n
			sec = n
		}
		pcap.AtSecond(&s.perSecond, sec).Captured++
	}
	s.sm.frameDone()
	return nil
}

// report assembles the Result of a run that consumed its whole source:
// every frame that reached the queue was processed, so those are the
// captured frames (spanning first to last: real captures carry epoch
// timestamps), and a live queue's drops the dropped ones, second by
// second as well (drops holds them by second of the queue's clock, which
// starts at the first frame too).
func (s *Session) report(start time.Time, t tally, drops []pcap.SecondStats) *Result {
	pipe := s.pipe
	if s.o.progress != nil {
		s.o.progress(Progress{Frames: s.nframes, Records: pipe.Stats().Records, T: s.lastT})
	}
	rep := &core.Report{
		WallClock:        time.Since(start),
		Pipeline:         pipe.Stats(),
		DistinctClients:  pipe.ClientAnonymizer().Count(),
		DistinctFiles:    pipe.FileAnonymizer().Count(),
		BucketSizes:      pipe.FileAnonymizer().BucketSizes(),
		EthernetCaptured: s.nframes,
		EthernetDropped:  t.full + t.late,
		VirtualDuration:  s.lastT - s.firstT,
	}
	rep.MaxBucketIdx, rep.MaxBucketSize = pipe.FileAnonymizer().MaxBucket()
	if s.sim != nil {
		s.sim.reportCapture(rep)
	} else {
		for sec, d := range drops {
			pcap.AtSecond(&s.perSecond, sec).Dropped += d.Dropped
		}
		rep.LossPerSecond = s.perSecond
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
