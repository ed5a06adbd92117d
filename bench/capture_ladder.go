package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"edtrace"
	"edtrace/internal/analysis"
	"edtrace/internal/core"
	"edtrace/internal/dataset"
	"edtrace/internal/ed2k"
	"edtrace/internal/netsim"
	"edtrace/internal/obs"
	"edtrace/internal/simtime"
	"edtrace/internal/xmlenc"
)

// frameAt is one captured frame held in memory for the ladder.
type frameAt struct {
	t    simtime.Time
	data []byte
}

// memSource replays frames held in memory through a Session. The same
// slices are emitted on every pass, which bends EmitFunc's ownership
// rule exactly as the root package's benchmark replaySource does: safe
// because without a tee the pipeline neither keeps nor alters frames.
type memSource struct{ frames []frameAt }

func (s *memSource) Frames(ctx context.Context, emit edtrace.EmitFunc) error {
	for _, f := range s.frames {
		if err := emit(f.t, f.data); err != nil {
			return err
		}
	}
	return nil
}

// switchSink lets one Pipeline — one set of anonymiser tables — serve
// both the record-collecting pass and the discarding timed passes.
type switchSink struct {
	keep    bool
	records []*xmlenc.Record
}

func (s *switchSink) Write(r *xmlenc.Record) error {
	if s.keep {
		s.records = append(s.records, r.Clone())
	}
	return nil
}

// processRung measures Pipeline.ProcessFrame over frames, in the steady
// state a long capture is in: one pipeline, whose first (untimed) pass
// fills the anonymiser tables and collects the records, serves every
// timed pass. It returns that pipeline and the records for the rungs
// that build on them.
func processRung(l *ladder, frames []frameAt, serverIP uint32, pair [2]int) (*core.Pipeline, []*xmlenc.Record, float64, error) {
	sink := &switchSink{keep: true}
	pipe := core.NewPipeline(serverIP, pair, sink)
	process := func() {
		for _, f := range frames {
			// The sink cannot fail and malformed frames are counted, not
			// returned.
			_ = pipe.ProcessFrame(f.t, f.data)
		}
	}
	process()
	sink.keep = false
	if len(sink.records) == 0 {
		return nil, nil, 0, fmt.Errorf("bench: ladder frames produced no records")
	}
	ns := l.rung("core.process_frame", len(frames), process)
	l.m["core.process_frame_ns"] = ns
	l.m["core.allocs_per_frame"] = allocsPer(len(frames), process)
	return pipe, sink.records, ns, nil
}

// captureRungs measures the capture side of the journey on frames:
// parse, decode, the whole per-frame pipeline, the anonymiser tables,
// xmlenc, the dataset writer raw and compressed, and the online figure
// collector. It returns the sum, in ns per frame, of the rungs one frame
// passes through on its way into a compressed dataset with figures (the
// rest are "of which" detail); the Session's queue hop is measured
// separately (sessionHop).
func captureRungs(l *ladder, frames []frameAt, serverIP uint32, pair [2]int, tmp string) (float64, error) {
	n := len(frames)

	// netsim.parse_ns: ethernet, IPv4 and (for unfragmented packets) UDP
	// header decoding.
	l.m["netsim.parse_ns"] = l.rung("netsim.parse", n, func() {
		for _, f := range frames {
			ip, err := netsim.DecodeEthernet(f.data)
			if err != nil {
				continue
			}
			hdr, payload, err := netsim.DecodeIPv4(ip)
			if err != nil || hdr.MoreFrags || hdr.FragOff != 0 {
				continue
			}
			// The malformed datagrams are the point of decoding them.
			_, _, _ = netsim.DecodeUDP(hdr.Src, hdr.Dst, payload)
		}
	})

	// core.decode_frame_ns: parse + reassembly + two-phase ed2k decode.
	dec := core.NewFrameDecoder()
	l.m["core.decode_frame_ns"] = l.rung("core.decode_frame", n, func() {
		for _, f := range frames {
			if d, ok := dec.DecodeFrame(f.t, f.data); ok {
				ed2k.Release(d.Msg)
			}
		}
	})
	st := dec.Stats()
	l.m["core.undecoded_ratio"] = st.UndecodedRate()

	pipe, records, processNS, err := processRung(l, frames, serverIP, pair)
	if err != nil {
		return 0, err
	}
	perFrame := float64(len(records)) / float64(n)

	// anonymize.*: the identifiers the pipeline looked up, replayed
	// against its own warm tables.
	var clientIDs []uint32
	var fileIDs []ed2k.FileID
	idDec := core.NewFrameDecoder()
	for _, f := range frames {
		d, ok := idDec.DecodeFrame(f.t, f.data)
		if !ok {
			continue
		}
		clientIDs = append(clientIDs, d.Src, d.Dst)
		switch m := d.Msg.(type) {
		case *ed2k.GetSources:
			fileIDs = append(fileIDs, m.Hashes...)
		case *ed2k.FoundSources:
			fileIDs = append(fileIDs, m.Hash)
			for _, s := range m.Sources {
				clientIDs = append(clientIDs, uint32(s.ID))
			}
		case *ed2k.OfferFiles:
			for i := range m.Files {
				fileIDs = append(fileIDs, m.Files[i].ID)
			}
		case *ed2k.SearchRes:
			for i := range m.Results {
				fileIDs = append(fileIDs, m.Results[i].ID)
			}
		}
		ed2k.Release(d.Msg)
	}
	ca, fa := pipe.ClientAnonymizer(), pipe.FileAnonymizer()
	l.m["anonymize.client_ns"] = l.rung("anonymize.client", len(clientIDs), func() {
		for _, id := range clientIDs {
			ca.Anonymize(id)
		}
	})
	if len(fileIDs) > 0 {
		l.m["anonymize.file_ns"] = l.rung("anonymize.file", len(fileIDs), func() {
			for _, id := range fileIDs {
				fa.Anonymize(id)
			}
		})
	}
	_, maxBucket := fa.MaxBucket()
	l.m["anonymize.max_bucket"] = float64(maxBucket)

	// xmlenc.append_ns: the record encoder alone.
	var buf []byte
	var xmlBytes int
	l.m["xmlenc.append_ns"] = l.rung("xmlenc.append", len(records), func() {
		xmlBytes = 0
		for _, r := range records {
			buf = xmlenc.AppendRecord(buf[:0], r)
			xmlBytes += len(buf)
		}
	})
	l.m["xmlenc.bytes_per_record"] = float64(xmlBytes) / float64(len(records))

	// dataset.write_*: Writer.Write … Close, compression off and on.
	var writeErr error
	write := func(compress bool) func() {
		dir := filepath.Join(tmp, "ladder-dataset")
		return func() {
			w, err := dataset.NewWriter(dir, dataset.WriterOptions{Compress: compress})
			if err != nil {
				writeErr = err
				return
			}
			for _, r := range records {
				if err := w.Write(r); err != nil {
					writeErr = err
				}
			}
			if err := w.Close(); err != nil {
				writeErr = err
			}
		}
	}
	raw := l.rung("dataset.write_raw", len(records), write(false))
	gz := l.rung("dataset.write_gzip", len(records), write(true))
	if writeErr != nil {
		return 0, fmt.Errorf("dataset rung: %w", writeErr)
	}
	l.m["dataset.write_raw_ns"] = raw
	l.m["dataset.write_gzip_ns"] = gz
	l.m["dataset.gzip_share"] = (gz - raw) / gz

	// edtrace.figures_sink_ns: what WithFigures adds per record.
	figures := l.rung("edtrace.figures_sink", len(records), func() {
		col := analysis.NewCollector()
		for _, r := range records {
			// Collector.Write never fails.
			_ = col.Write(r)
		}
	})
	l.m["edtrace.figures_sink_ns"] = figures

	return processNS + (figures+gz)*perFrame, nil
}

// sessionHop times the same frames twice in one fresh process: straight
// through a new Pipeline's ProcessFrame, and through Session.Run with no
// sink. The difference is what the source goroutine, the batching and
// the bounded queue cost per frame. Both passes start with empty
// anonymiser tables, so the tables' first-touch cost cancels; a process
// runs the pair once because every further pass would reuse the freed
// tables of the one before (see child.go).
func sessionHop(frames []frameAt, serverIP uint32, pair [2]int, sessionFirst bool) (directNS, sessionNS float64, err error) {
	n := float64(len(frames))
	var pipe *core.Pipeline
	direct := func() error {
		pipe = core.NewPipeline(serverIP, pair, core.DiscardSink{})
		t0 := time.Now()
		for _, f := range frames {
			if err := pipe.ProcessFrame(f.t, f.data); err != nil {
				return err
			}
		}
		directNS = float64(time.Since(t0).Nanoseconds()) / n
		return nil
	}
	session := func() error {
		t0 := time.Now()
		_, err := edtrace.NewSession(&memSource{frames}, edtrace.WithServerIP(serverIP),
			edtrace.WithFileBytePair(pair[0], pair[1])).Run(context.Background())
		sessionNS = float64(time.Since(t0).Nanoseconds()) / n
		return err
	}
	passes := []func() error{direct, session}
	if sessionFirst {
		passes = []func() error{session, direct}
	}
	for _, pass := range passes {
		if err := pass(); err != nil {
			return 0, 0, err
		}
	}
	// pipe stays reachable until here, so a Session that ran second got
	// fresh memory for its tables too.
	runtime.KeepAlive(pipe)
	return directNS, sessionNS, nil
}

// mirrorRung measures LiveSource.Mirror — the frame encode and the
// non-blocking queue offer the daemon's tap pays per message — with a
// Session draining the queue. Calls are timed in bursts of an eighth of
// the queue with pauses between, so the number is Mirror's own cost and
// the drop count says whether the drain kept up with that duty cycle.
func mirrorRung(l *ladder, msgs []mirrored, serverIP uint32) error {
	src := edtrace.NewLiveSource(0)
	done := make(chan error, 1)
	var res *edtrace.Result
	go func() {
		var err error
		res, err = edtrace.NewSession(src, edtrace.WithServerIP(serverIP)).Run(context.Background())
		done <- err
	}()
	const burst = 512
	var perCall []float64
	deadline := time.Now().Add(l.budget)
	for i := 0; len(perCall) == 0 || time.Now().Before(deadline); {
		t0 := time.Now()
		for k := 0; k < burst; k++ {
			m := &msgs[i%len(msgs)]
			src.Mirror(m.src, m.dst, m.payload)
			i++
		}
		t1 := time.Now()
		l.tr.add("edtrace.mirror", t0, t1, l.parent, 0)
		perCall = append(perCall, float64(t1.Sub(t0).Nanoseconds())/burst)
		time.Sleep(3 * time.Millisecond)
	}
	src.Close()
	if err := <-done; err != nil {
		return fmt.Errorf("mirror rung: %w", err)
	}
	l.m["edtrace.mirror_ns"] = median(perCall)
	l.m["edtrace.mirror_drops"] = float64(res.Report.EthernetDropped)
	return nil
}

// mirrored is one message as the daemon's tap hands it to Mirror.
type mirrored struct {
	src, dst uint32
	payload  []byte
}

// sessionObserver is everything a traced capture job watches from
// outside the Session: progress callbacks (one span per 8192 frames)
// and the WithMetrics queue gauge, sampled on a timer.
type sessionObserver struct {
	reg  *obs.Registry
	prog []struct {
		at     time.Time
		frames uint64
	}
	stop     chan struct{}
	wg       sync.WaitGroup
	queueMax float64
}

func newSessionObserver() *sessionObserver {
	return &sessionObserver{reg: obs.NewRegistry(), stop: make(chan struct{})}
}

func (o *sessionObserver) options() []edtrace.Option {
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-o.stop:
				return
			case <-tick.C:
				if d := o.queueDepth(); d > o.queueMax {
					o.queueMax = d
				}
			}
		}
	}()
	return []edtrace.Option{
		edtrace.WithMetrics(o.reg),
		edtrace.WithProgress(func(p edtrace.Progress) {
			o.prog = append(o.prog, struct {
				at     time.Time
				frames uint64
			}{time.Now(), p.Frames})
		}),
	}
}

// queueDepth reads edsession_queue_batches the only way the registry
// offers from outside: its JSON rendering.
func (o *sessionObserver) queueDepth() float64 {
	var b strings.Builder
	if err := o.reg.WriteJSON(&b); err != nil {
		return 0
	}
	var fams map[string]struct {
		Samples []struct {
			Value float64 `json:"value"`
		} `json:"samples"`
	}
	if err := json.Unmarshal([]byte(b.String()), &fams); err != nil {
		return 0
	}
	if f, ok := fams["edsession_queue_batches"]; ok && len(f.Samples) > 0 {
		return f.Samples[0].Value
	}
	return 0
}

// finish stops the sampler and returns the deepest queue seen and one
// span per progress interval, on a clock starting at t0.
func (o *sessionObserver) finish(t0 time.Time) (float64, []span) {
	close(o.stop)
	o.wg.Wait()
	var spans []span
	prev := t0
	for _, p := range o.prog {
		spans = append(spans, span{
			Name: "session.progress", Start: prev.Sub(t0).Nanoseconds(), End: p.at.Sub(t0).Nanoseconds(),
			Req: int64(p.frames),
		})
		prev = p.at
	}
	return o.queueMax, spans
}
