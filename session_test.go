package edtrace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edtrace/internal/dataset"
	"edtrace/internal/ed2k"
	"edtrace/internal/edserverd"
	"edtrace/internal/obs"
	"edtrace/internal/pcap"
	"edtrace/internal/simtime"
	"edtrace/internal/xmlenc"
)

// noLeak snapshots the goroutine count; the returned check, deferred to
// the end of the test, waits for the count to settle back to it.
func noLeak(t *testing.T) func() {
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutine leak: %d before the test, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// watchedSource counts the frames an offline source hands to the session
// — the "emitted" side of frame conservation. Wrapping hides the inner
// source's pipeline defaults, so sessions over it need WithServerIP (and
// it would hide a live source's queue: a LiveSource is watched through
// its own counts).
type watchedSource struct {
	Source
	emitted uint64
}

func (w *watchedSource) Frames(ctx context.Context, emit EmitFunc) error {
	return w.Source.Frames(ctx, func(t simtime.Time, frame []byte) error {
		w.emitted++
		return emit(t, frame)
	})
}

// counterOf reads the series of counter family name with exactly these
// labels from reg's JSON rendering, as a scraper sees it (0 if there is
// none): the session's counters are callbacks, not obs.Counters.
func counterOf(reg *obs.Registry, name string, labels ...obs.Label) uint64 {
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		panic(err)
	}
	var fams map[string]struct {
		Samples []struct {
			Labels map[string]string `json:"labels"`
			Value  json.Number       `json:"value"`
		} `json:"samples"`
	}
	if err := json.Unmarshal([]byte(b.String()), &fams); err != nil {
		panic(err)
	}
	want := map[string]string{}
	for _, l := range labels {
		want[l.Key] = l.Value
	}
	for _, smp := range fams[name].Samples {
		if maps.Equal(smp.Labels, want) {
			v, err := strconv.ParseUint(smp.Value.String(), 10, 64)
			if err != nil {
				panic(err)
			}
			return v
		}
	}
	return 0
}

// droppedBy reads one reason's series of the session's drop counter.
func droppedBy(reg *obs.Registry, reason string) uint64 {
	return counterOf(reg, "edsession_dropped_frames_total", obs.L("reason", reason))
}

// checkConservation asserts the session's frame accounting on reg:
// every emitted frame was processed or dropped, for one reason, exactly
// once.
func checkConservation(t *testing.T, reg *obs.Registry, emitted uint64) (frames, dropped uint64) {
	t.Helper()
	frames = counterOf(reg, "edsession_frames_total")
	for _, reason := range []string{"queue_full", "closed", "aborted", "oversize"} {
		dropped += droppedBy(reg, reason)
	}
	if frames+dropped != emitted {
		t.Fatalf("processed %d + dropped %d != emitted %d", frames, dropped, emitted)
	}
	return frames, dropped
}

type recSink struct{ recs []*xmlenc.Record }

func (m *recSink) Write(r *xmlenc.Record) error {
	m.recs = append(m.recs, r.Clone()) // records are only valid during Write
	return nil
}

// TestSessionSimPcapParity is the capture-now-decode-later equivalence
// at the Session level: the same seed must produce identical anonymised
// record streams via SimSource directly and via a pcap tee replayed
// through a PcapSource.
func TestSessionSimPcapParity(t *testing.T) {
	sim := tinySim()
	path := filepath.Join(t.TempDir(), "capture.pcap")

	live := &recSink{}
	liveRes, err := NewSession(NewSimSource(sim),
		WithPcapTee(path),
		WithSink(live),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(live.recs) == 0 {
		t.Fatal("sim session produced no records")
	}

	replay := &recSink{}
	replayRes, err := NewSession(NewPcapSource(path),
		WithServerIP(sim.ServerIP),
		WithFileBytePair(sim.FileBytePair[0], sim.FileBytePair[1]),
		WithSink(replay),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if len(replay.recs) != len(live.recs) {
		t.Fatalf("replay %d records, live %d", len(replay.recs), len(live.recs))
	}
	for i := range live.recs {
		if !reflect.DeepEqual(replay.recs[i], live.recs[i]) {
			t.Fatalf("record %d differs:\nlive   %+v\nreplay %+v",
				i, live.recs[i], replay.recs[i])
		}
	}
	if replayRes.Report.DistinctClients != liveRes.Report.DistinctClients ||
		replayRes.Report.DistinctFiles != liveRes.Report.DistinctFiles {
		t.Fatal("anonymisation diverged between sim and pcap replay")
	}
	lp, rp := liveRes.Report.Pipeline, replayRes.Report.Pipeline
	if lp != rp {
		t.Fatalf("pipeline stats diverged:\nlive   %+v\nreplay %+v", lp, rp)
	}
	// The tee records post-kernel-buffer frames, so the replay sees
	// exactly what the sim pipeline processed.
	if replayRes.Report.EthernetCaptured != lp.Frames {
		t.Fatalf("replay frames %d != processed %d",
			replayRes.Report.EthernetCaptured, lp.Frames)
	}
}

// TestSessionCancellation proves Session.Run(ctx) stops promptly on
// cancellation, accounts for every frame the source got out, and still
// closes the dataset into a valid partial capture.
func TestSessionCancellation(t *testing.T) {
	defer noLeak(t)()
	sim := tinySim()
	sim.Workload.NumClients = 2000
	sim.Workload.NumFiles = 20000
	sim.Traffic.Duration = 10 * simtime.Week // far beyond test patience

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &watchedSource{Source: NewSimSource(sim)}
	reg := obs.NewRegistry()
	session := NewSession(src,
		WithServerIP(sim.ServerIP),
		WithDataset(dir, false),
		WithMetrics(reg),
		WithProgress(func(Progress) { cancel() }),
		WithProgressEvery(256),
	)
	start := time.Now()
	res, err := session.Run(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (result %v)", err, res)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}
	if frames, _ := checkConservation(t, reg, src.emitted); frames < 256 {
		t.Fatalf("%d frames processed before the cancelling progress callback, want >= 256", frames)
	}

	// The dataset written so far must be complete and spec-conformant.
	man, err := dataset.Open(dir)
	if err != nil {
		t.Fatalf("cancelled run left no readable dataset: %v", err)
	}
	if man.Records == 0 {
		t.Fatal("cancelled run wrote no records before stopping")
	}
	rep, err := dataset.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("partial dataset violates the spec:\n%v", rep.Violations)
	}
}

type failingSink struct{ after int }

func (f *failingSink) Write(*xmlenc.Record) error {
	if f.after <= 0 {
		return errors.New("sink exploded")
	}
	f.after--
	return nil
}

// TestSessionClosesDatasetOnSinkError covers the leak the old
// edtrace.Run had: a mid-run failure must still close the dataset writer
// (manifest written, file handle released).
func TestSessionClosesDatasetOnSinkError(t *testing.T) {
	defer noLeak(t)()
	sim := tinySim()
	dir := t.TempDir()
	_, err := NewSession(NewSimSource(sim),
		WithSink(&failingSink{after: 10}),
		WithDataset(dir, true),
	).Run(context.Background())
	if err == nil || err.Error() != "sink exploded" {
		t.Fatalf("sink error not surfaced: %v", err)
	}
	man, err := dataset.Open(dir)
	if err != nil {
		t.Fatalf("failed run left no readable dataset: %v", err)
	}
	if man.Records == 0 {
		t.Fatal("no records flushed before the failure")
	}
}

// TestSessionDropAccounting is the frame-conservation invariant under a
// mid-run pipeline failure: every emitted frame is counted exactly once
// as processed or dropped — across the failing batch's tail, the batches
// still queued and the producer's unflushed partial batch — never twice,
// never zero times.
func TestSessionDropAccounting(t *testing.T) {
	defer noLeak(t)()
	const serverIP = uint32(0x0A000001)
	const total = 500
	live := NewLiveSource(total)
	for i := 0; i < total; i++ {
		live.Mirror(0x01000000+uint32(i), serverIP, ed2k.Encode(&ed2k.StatReq{Challenge: uint32(i)}))
	}
	live.Close()
	reg := obs.NewRegistry()
	s := NewSession(live,
		WithServerIP(serverIP),
		WithSink(&failingSink{after: 10}),
		WithMetrics(reg),
	)
	if _, err := s.Run(context.Background()); err == nil || err.Error() != "sink exploded" {
		t.Fatalf("sink error not surfaced: %v", err)
	}
	if frames, _ := checkConservation(t, reg, total); frames != 10 {
		t.Fatalf("%d frames processed before the failing record, want 10", frames)
	}
}

// TestLiveSourceSession runs the live mode without sockets: mirrored
// datagrams flow through the same Session pipeline.
func TestLiveSourceSession(t *testing.T) {
	defer noLeak(t)()
	const serverIP, clientIP = uint32(0x0A000001), uint32(0x01020304)
	src := NewLiveSource(0)
	sink := &recSink{}
	session := NewSession(src, WithServerIP(serverIP), WithSink(sink))

	src.Mirror(clientIP, serverIP, ed2k.Encode(&ed2k.StatReq{Challenge: 7}))
	src.Mirror(serverIP, clientIP, ed2k.Encode(&ed2k.StatRes{Challenge: 7, Users: 1, Files: 2}))
	src.Close()

	res, err := session.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.recs) != 2 {
		t.Fatalf("records: %d", len(sink.recs))
	}
	if sink.recs[0].Dir != xmlenc.DirQuery || sink.recs[1].Dir != xmlenc.DirAnswer {
		t.Fatalf("directions wrong: %v %v", sink.recs[0].Dir, sink.recs[1].Dir)
	}
	if res.Report.EthernetCaptured != 2 || res.Report.EthernetDropped != 0 {
		t.Fatalf("capture counters: %+v", res.Report)
	}
	if res.Report.Pipeline.DecodedOK != 2 {
		t.Fatalf("pipeline: %+v", res.Report.Pipeline)
	}
}

// TestLiveSourceCountsQueueOverflow: the bounded queue is the live
// mode's kernel buffer — overflow is counted, not blocking.
func TestLiveSourceCountsQueueOverflow(t *testing.T) {
	const serverIP = uint32(0x0A000001)
	src := NewLiveSource(1)
	payload := ed2k.Encode(&ed2k.StatReq{Challenge: 1})
	for i := 0; i < 3; i++ {
		src.Mirror(1, serverIP, payload)
	}
	src.Close()
	res, err := NewSession(src, WithServerIP(serverIP)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.EthernetCaptured != 1 || res.Report.EthernetDropped != 2 {
		t.Fatalf("overflow accounting: captured %d dropped %d",
			res.Report.EthernetCaptured, res.Report.EthernetDropped)
	}
	if res.Report.Pipeline.Records != 1 {
		t.Fatalf("records: %d", res.Report.Pipeline.Records)
	}
}

// TestLiveSourceDropsAfterClose: a datagram mirrored after Close is a
// counted drop, not a captured frame the drain may or may not reach.
func TestLiveSourceDropsAfterClose(t *testing.T) {
	const serverIP = uint32(0x0A000001)
	const before, after = 300, 7
	src := NewLiveSource(0)
	payload := ed2k.Encode(&ed2k.StatReq{Challenge: 1})
	for i := 0; i < before; i++ {
		src.Mirror(1, serverIP, payload)
	}
	src.Close()
	for i := 0; i < after; i++ {
		src.Mirror(1, serverIP, payload)
	}
	reg := obs.NewRegistry()
	res, err := NewSession(src, WithServerIP(serverIP), WithMetrics(reg)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Pipeline.Records != before || rep.EthernetCaptured != before || rep.EthernetDropped != after {
		t.Fatalf("%d records, captured %d, dropped %d; want %d, %d, %d",
			rep.Pipeline.Records, rep.EthernetCaptured, rep.EthernetDropped, before, before, after)
	}
	checkConservation(t, reg, before+after)
	if got := droppedBy(reg, "closed"); got != after {
		t.Fatalf("closed drops %d, want %d", got, after)
	}
}

// TestFig2MatchesCaptureCounters: a capture's Figure 2 adds up to its
// report's counters, for a live source that dropped frames on a full
// queue and after Close, and for the replay of its pcap tee.
func TestFig2MatchesCaptureCounters(t *testing.T) {
	const serverIP = uint32(0x0A000001)
	const mirrored, late = 1000, 7
	payload := ed2k.Encode(&ed2k.StatReq{Challenge: 1})
	live := NewLiveSource(256)
	for i := 0; i < mirrored; i++ {
		live.Mirror(1, serverIP, payload)
	}
	live.Close()
	for i := 0; i < late; i++ {
		live.Mirror(1, serverIP, payload)
	}
	tee := filepath.Join(t.TempDir(), "live.pcap")
	reg := obs.NewRegistry()
	liveRes, err := NewSession(live, WithServerIP(serverIP), WithPcapTee(tee), WithMetrics(reg)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if droppedBy(reg, "queue_full") == 0 || droppedBy(reg, "closed") != late {
		t.Fatalf("drops: %d queue_full, %d closed; want some and %d",
			droppedBy(reg, "queue_full"), droppedBy(reg, "closed"), late)
	}
	replayRes, err := NewSession(NewPcapSource(tee), WithServerIP(serverIP)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"live": liveRes, "replay": replayRes} {
		rep, fig := res.Report, res.Fig2
		if rep.EthernetCaptured == 0 || fig.TotalSeen != rep.EthernetCaptured || fig.TotalLost != rep.EthernetDropped {
			t.Errorf("%s: Fig 2 saw %d and lost %d, the report captured %d and dropped %d",
				name, fig.TotalSeen, fig.TotalLost, rep.EthernetCaptured, rep.EthernetDropped)
		}
	}
}

// TestFig2SeriesBoundedByFrames: a replayed capture's timestamps are
// input, so its per-second series is sized by its frames, not its clock.
// A silence of up to maxGapSeconds stays in the series; a longer jump is
// cut, and the frames after it follow on from the next second.
func TestFig2SeriesBoundedByFrames(t *testing.T) {
	replay := func(secs ...uint32) []pcap.SecondStats {
		t.Helper()
		var buf bytes.Buffer
		w, err := pcap.NewWriter(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, frame := range benchFrames(len(secs)) {
			if err := w.Write(pcap.Record{TimeSec: secs[i], OrigLen: uint32(len(frame)), Data: frame}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "clock.pcap")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := NewSession(NewPcapSource(path), WithServerIP(0x0A000001)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Fig2.TotalSeen != uint64(len(secs)) {
			t.Fatalf("Fig 2 saw %d frames, want %d", res.Fig2.TotalSeen, len(secs))
		}
		return res.Report.LossPerSecond
	}
	captured := func(per []pcap.SecondStats) []int {
		var at []int
		for sec, s := range per {
			for range s.Captured {
				at = append(at, sec)
			}
		}
		return at
	}

	// A jump the gap rule cuts: this one would cost an uncut series only
	// a thousand seconds, so a series that is not cut fails here, before
	// the replay below could ask for 2^32 of them.
	per := replay(0, 30, 30+maxGapSeconds+1000, 30+maxGapSeconds+1001)
	if got, want := captured(per), []int{0, 30, 31, 32}; !reflect.DeepEqual(got, want) || len(per) != 33 {
		t.Fatalf("frames counted in seconds %v of %d, want %v of 33", got, len(per), want)
	}
	// A clock that jumps from 1970 to the end of the 32-bit range.
	if per := replay(0, 0xFFFFFFFF); len(per) != 2 {
		t.Fatalf("two frames made a series of %d seconds, want 2", len(per))
	}
}

// parkedSink holds the consumer in its first Write until released.
type parkedSink struct{ release chan struct{} }

func (s parkedSink) Write(*xmlenc.Record) error {
	<-s.release
	return nil
}

// TestMirrorNeverBlocks: with the consumer parked in its sink, eight
// goroutines mirror three queues' worth of datagrams while a ninth closes
// the source. Every call returns, every datagram is captured or dropped,
// and once the sink lets go every captured frame is processed.
func TestMirrorNeverBlocks(t *testing.T) {
	defer noLeak(t)()
	const serverIP = uint32(0x0A000001)
	const mirrors, perMirror = 8, 3 * queueFrames / 8
	src := NewLiveSource(0)
	release := make(chan struct{})
	reg := obs.NewRegistry()
	type result struct {
		res *Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := NewSession(src, WithServerIP(serverIP), WithSink(parkedSink{release}), WithMetrics(reg)).Run(context.Background())
		done <- result{res, err}
	}()

	var calls atomic.Int64
	var wg sync.WaitGroup
	payload := ed2k.Encode(&ed2k.StatReq{Challenge: 1})
	for g := 0; g < mirrors; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perMirror; i++ {
				src.Mirror(0x01000000+uint32(g), serverIP, payload)
				calls.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() { // close once the queue has overflowed
		defer wg.Done()
		for calls.Load() < 2*queueFrames {
			runtime.Gosched()
		}
		src.Close()
	}()
	returned := make(chan struct{})
	go func() {
		wg.Wait()
		close(returned)
	}()
	select {
	case <-returned:
		close(release)
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("Mirror or Close blocked behind a parked consumer")
	}

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	rep := r.res.Report
	const mirrored = mirrors * perMirror
	if rep.EthernetCaptured+rep.EthernetDropped != mirrored {
		t.Fatalf("captured %d + dropped %d != mirrored %d", rep.EthernetCaptured, rep.EthernetDropped, mirrored)
	}
	if rep.Pipeline.Frames != rep.EthernetCaptured {
		t.Fatalf("processed %d of %d captured frames", rep.Pipeline.Frames, rep.EthernetCaptured)
	}
	if rep.EthernetCaptured > queueFrames+batchSize || droppedBy(reg, "queue_full") == 0 {
		t.Fatalf("captured %d, %d dropped on a full queue: the queue holds %d frames",
			rep.EthernetCaptured, droppedBy(reg, "queue_full"), queueFrames)
	}
	checkConservation(t, reg, mirrored)
}

func TestSessionRequiresServerIP(t *testing.T) {
	if _, err := NewSession(NewPcapSource("/nonexistent.pcap")).Run(context.Background()); err == nil {
		t.Fatal("pcap session without server IP accepted")
	}
}

func TestSessionSingleUse(t *testing.T) {
	src := NewLiveSource(0)
	src.Close()
	s := NewSession(src, WithServerIP(1))
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err == nil {
		t.Fatal("second Run accepted")
	}
	if _, err := NewSession(src, WithServerIP(1)).Run(context.Background()); err == nil {
		t.Fatal("second session over one LiveSource accepted")
	}
}

// TestSessionBadPcapClosesCleanly: a producer-side failure — a missing
// file before the first frame, a truncated record in the middle of a
// batch — must surface, account for every frame that did get out, and
// still leave a closed, readable dataset.
func TestSessionBadPcapClosesCleanly(t *testing.T) {
	defer noLeak(t)()
	// 199 whole records and a cut-short 200th: one full batch of 128
	// reaches the queue, 71 frames are in the producer's hands at the error.
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, frame := range benchFrames(256)[:200] {
		if err := w.Write(pcap.RecordAt(simtime.Time(i)*simtime.Millisecond, frame)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(t.TempDir(), "truncated.pcap")
	if err := os.WriteFile(truncated, buf.Bytes()[:buf.Len()-7], 0o644); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name, path  string
		emitted     uint64
		wantDropped uint64
	}{
		{"missing", filepath.Join(t.TempDir(), "missing.pcap"), 0, 0},
		{"truncated", truncated, 199, 71},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			src := &watchedSource{Source: NewPcapSource(c.path)}
			reg := obs.NewRegistry()
			_, err := NewSession(src,
				WithServerIP(0x0A000001),
				WithDataset(dir, false),
				WithMetrics(reg),
			).Run(context.Background())
			if err == nil {
				t.Fatal("bad pcap accepted")
			}
			if src.emitted != c.emitted {
				t.Fatalf("source emitted %d frames, want %d", src.emitted, c.emitted)
			}
			if _, dropped := checkConservation(t, reg, c.emitted); dropped != c.wantDropped {
				t.Fatalf("dropped %d frames, want the producer's partial batch of %d", dropped, c.wantDropped)
			}
			man, err := dataset.Open(dir)
			if err != nil {
				t.Fatalf("dataset not closed after producer failure: %v", err)
			}
			if man.Records != c.emitted-c.wantDropped {
				t.Fatalf("dataset holds %d records, want %d", man.Records, c.emitted-c.wantDropped)
			}
		})
	}
}

// monotoneSink counts the records that go back in time.
type monotoneSink struct {
	last       float64
	inversions int
}

func (m *monotoneSink) Write(r *xmlenc.Record) error {
	if r.T < m.last {
		m.inversions++
	}
	m.last = r.T
	return nil
}

// TestLiveSourceMonotoneUnderConcurrentMirror: concurrent Mirror callers
// must queue their frames in stamp order, or a ServerSource dataset
// breaks the format's ordering rule under load.
func TestLiveSourceMonotoneUnderConcurrentMirror(t *testing.T) {
	defer noLeak(t)()
	const serverIP = uint32(0x0A000001)
	const mirrors, perMirror = 8, 20000
	live := NewLiveSource(mirrors * perMirror)
	sink := &monotoneSink{}
	dir := t.TempDir()
	type result struct {
		res *Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := NewSession(live, WithServerIP(serverIP), WithSink(sink), WithDataset(dir, false)).Run(context.Background())
		done <- result{res, err}
	}()
	var wg sync.WaitGroup
	for g := 0; g < mirrors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := ed2k.Encode(&ed2k.StatReq{Challenge: uint32(g)})
			for i := 0; i < perMirror; i++ {
				live.Mirror(0x01000000+uint32(g), serverIP, payload)
			}
		}(g)
	}
	wg.Wait()
	live.Close()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := r.res.Report.Pipeline.Records; got != mirrors*perMirror {
		t.Fatalf("%d records from %d mirrored datagrams", got, mirrors*perMirror)
	}
	if sink.inversions != 0 {
		t.Fatalf("%d records out of timestamp order", sink.inversions)
	}
	rep, err := dataset.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("live dataset violates the spec:\n%v", rep.Violations)
	}
}

// TestDatasetWriterWidthFollowsSource: where the dataset writer
// compresses is derived from the source, not set by the caller. An
// offline source (simulator, pcap replay, a caller's own Source) has the
// machine's CPUs to itself and compresses on a background goroutine; a
// source mirrored by the process it captures (LiveSource, and
// ServerSource) shares them with its daemon and compresses inline. Every dataset verifies.
func TestDatasetWriterWidthFollowsSource(t *testing.T) {
	defer noLeak(t)()
	sim := tinySim()
	sim.Traffic.Duration = 20 * simtime.Minute
	pcapPath := filepath.Join(t.TempDir(), "capture.pcap")

	startDaemon := func(t *testing.T) *edserverd.Daemon {
		d, err := edserverd.Start(edserverd.Config{UDPAddr: "off"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := d.Shutdown(ctx); err != nil {
				t.Error(err)
			}
		})
		return d
	}
	// mirrored feeds an in-process source one query/answer pair and ends it.
	mirrored := func(l *LiveSource, serverKey uint32) {
		const clientIP = uint32(0x01020304)
		l.Mirror(clientIP, serverKey, ed2k.Encode(&ed2k.StatReq{Challenge: 7}))
		l.Mirror(serverKey, clientIP, ed2k.Encode(&ed2k.StatRes{Challenge: 7, Users: 1, Files: 2}))
		l.Close()
	}

	const offline = true
	for _, tc := range []struct {
		name string
		src  func(*testing.T) Source
		opts []Option
		want bool
	}{
		{"SimSource", func(t *testing.T) Source { return NewSimSource(sim) },
			[]Option{WithPcapTee(pcapPath)}, offline},
		{"PcapSource", func(t *testing.T) Source { return NewPcapSource(pcapPath) }, // the tee of the case above
			[]Option{WithServerIP(sim.ServerIP)}, offline},
		{"caller's Source", func(t *testing.T) Source { return &watchedSource{Source: NewSimSource(sim)} },
			[]Option{WithServerIP(sim.ServerIP)}, offline},
		{"LiveSource", func(t *testing.T) Source {
			src := NewLiveSource(0)
			mirrored(src, 0x0A000001)
			return src
		}, []Option{WithServerIP(0x0A000001)}, false},
		{"ServerSource", func(t *testing.T) Source {
			d := startDaemon(t)
			src := NewServerSource(d, 0)
			mirrored(src.LiveSource, d.ServerKey())
			return src
		}, nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := NewSession(tc.src(t), append(tc.opts, WithDataset(dir, true))...)
			res, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if s.dsBackground != tc.want {
				t.Fatalf("dataset writer compressed in background: %v, want %v", s.dsBackground, tc.want)
			}
			rep, err := dataset.Verify(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("dataset violates the spec:\n%v", rep.Violations)
			}
			if rep.Records == 0 || rep.Records != res.Report.Pipeline.Records {
				t.Fatalf("dataset holds %d records, pipeline emitted %d", rep.Records, res.Report.Pipeline.Records)
			}
		})
	}
}
