package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"edtrace/internal/anonymize"
	"edtrace/internal/ed2k"
	"edtrace/internal/netsim"
	"edtrace/internal/pcap"
	"edtrace/internal/server"
	"edtrace/internal/simtime"
	"edtrace/internal/workload"
	"edtrace/internal/xmlenc"
)

const testServerIP = 0x0A000001

// frameFor wraps an eDonkey payload in ethernet/IP/UDP towards (or from)
// the server.
func frameFor(src, dst uint32, payload []byte) []byte {
	dg := netsim.EncodeUDP(src, dst, 4672, 4665, payload)
	pkt := netsim.EncodeIPv4(netsim.IPv4Header{
		ID: 1, Protocol: netsim.ProtoUDP, Src: src, Dst: dst,
	}, dg)
	return netsim.EncodeEthernet(src, dst, pkt)
}

type memSink struct{ recs []*xmlenc.Record }

func (m *memSink) Write(r *xmlenc.Record) error {
	m.recs = append(m.recs, r.Clone()) // the pipeline recycles its scratch record
	return nil
}

func TestPipelineQueryAndAnswerRecords(t *testing.T) {
	sink := &memSink{}
	p := NewPipeline(testServerIP, [2]int{5, 11}, sink)

	var fid ed2k.FileID
	fid[5] = 7
	query := &ed2k.GetSources{Hashes: []ed2k.FileID{fid}}
	if err := p.ProcessFrame(simtime.Second, frameFor(0x01020304, testServerIP, ed2k.Encode(query))); err != nil {
		t.Fatal(err)
	}
	answer := &ed2k.FoundSources{Hash: fid, Sources: []ed2k.Endpoint{{ID: 0x01020304, Port: 4662}, {ID: 555, Port: 4662}}}
	if err := p.ProcessFrame(2*simtime.Second, frameFor(testServerIP, 0x01020304, ed2k.Encode(answer))); err != nil {
		t.Fatal(err)
	}

	if len(sink.recs) != 2 {
		t.Fatalf("records: %d", len(sink.recs))
	}
	q, a := sink.recs[0], sink.recs[1]
	if q.Dir != xmlenc.DirQuery || q.Op != "GetSources" || q.T != 1.0 {
		t.Fatalf("query record: %+v", q)
	}
	if a.Dir != xmlenc.DirAnswer || a.Op != "FoundSources" {
		t.Fatalf("answer record: %+v", a)
	}
	// Same client IP on both sides gets the same anonymised id 0.
	if q.Client != 0 || a.Client != 0 {
		t.Fatalf("client anonymisation: q=%d a=%d", q.Client, a.Client)
	}
	// The fileID was first seen in the query: anon id 0 in both records.
	if q.FileRefs[0] != 0 || a.FileRefs[0] != 0 {
		t.Fatalf("file anonymisation: q=%v a=%v", q.FileRefs, a.FileRefs)
	}
	// Sources: 0x01020304 already anonymised as 0, 555 becomes 1.
	if a.Sources[0] != 0 || a.Sources[1] != 1 {
		t.Fatalf("sources: %v", a.Sources)
	}
	st := p.Stats()
	if st.Queries != 1 || st.Answers != 1 || st.DecodedOK != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPipelineAnonymisesOffers(t *testing.T) {
	sink := &memSink{}
	p := NewPipeline(testServerIP, [2]int{5, 11}, sink)
	offer := &ed2k.OfferFiles{Client: 99, Port: 4662, Files: []ed2k.FileEntry{{
		ID: ed2k.FileID{1, 2, 3},
		Tags: []ed2k.Tag{
			ed2k.StringTag(ed2k.FTFileName, "secret song.mp3"),
			ed2k.UintTag(ed2k.FTFileSize, 5*1024*1024),
			ed2k.StringTag(ed2k.FTFileType, "Audio"),
		},
	}}}
	if err := p.ProcessFrame(0, frameFor(0x05060708, testServerIP, ed2k.Encode(offer))); err != nil {
		t.Fatal(err)
	}
	rec := sink.recs[0]
	f := rec.Files[0]
	if f.SizeKB != 5*1024 {
		t.Fatalf("size not truncated to KB: %d", f.SizeKB)
	}
	if f.NameHash == "" || f.NameHash == "secret song.mp3" || len(f.NameHash) != 32 {
		t.Fatalf("name not hashed: %q", f.NameHash)
	}
	if f.TypeHash == "" || f.TypeHash == "Audio" {
		t.Fatalf("type not hashed: %q", f.TypeHash)
	}
}

// TestTypeHashMemoIsBounded: every type hash is anonymize.HashString's,
// from the memo or past it, and a client inventing a type per entry
// leaves the memo at its bound.
func TestTypeHashMemoIsBounded(t *testing.T) {
	sink := &memSink{}
	p := NewPipeline(testServerIP, [2]int{5, 11}, sink)
	const n = 3 * maxTypeHashes
	for round := 0; round < 2; round++ { // the second round reads what the first memoised
		for i := 0; i < n; i++ {
			offer := &ed2k.OfferFiles{Client: 99, Port: 4662, Files: []ed2k.FileEntry{{
				ID:   ed2k.FileID{byte(i), byte(i >> 8)},
				Tags: []ed2k.Tag{ed2k.StringTag(ed2k.FTFileType, fmt.Sprintf("type-%d", i))},
			}}}
			if err := p.ProcessFrame(0, frameFor(0x05060708, testServerIP, ed2k.Encode(offer))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(sink.recs) != 2*n {
		t.Fatalf("%d records, want %d", len(sink.recs), 2*n)
	}
	for i, rec := range sink.recs {
		if want := anonymize.HashString(fmt.Sprintf("type-%d", i%n)); rec.Files[0].TypeHash != want {
			t.Fatalf("record %d: type hash %q, want %q", i, rec.Files[0].TypeHash, want)
		}
	}
	if len(p.typeHashes) != maxTypeHashes {
		t.Fatalf("memo holds %d types after %d distinct ones, want %d", len(p.typeHashes), n, maxTypeHashes)
	}
}

func TestPipelineSearchConstraints(t *testing.T) {
	sink := &memSink{}
	p := NewPipeline(testServerIP, [2]int{5, 11}, sink)
	expr := ed2k.And(ed2k.Keyword("mozart"),
		ed2k.And(ed2k.SizeAtLeast(10*1024*1024), ed2k.SizeAtMost(700*1024*1024)))
	p.ProcessFrame(0, frameFor(1, testServerIP, ed2k.Encode(&ed2k.SearchReq{Expr: expr})))
	rec := sink.recs[0]
	if len(rec.Keywords) != 1 || len(rec.Keywords[0]) != 32 {
		t.Fatalf("keywords: %v", rec.Keywords)
	}
	if rec.MinKB != 10*1024 || rec.MaxKB != 700*1024 {
		t.Fatalf("constraints: min=%d max=%d", rec.MinKB, rec.MaxKB)
	}
}

func TestPipelineCountsFailures(t *testing.T) {
	p := NewPipeline(testServerIP, [2]int{5, 11}, DiscardSink{})
	// Structural garbage.
	p.ProcessFrame(0, frameFor(1, testServerIP, []byte{0xAA, 0xBB}))
	// Semantic garbage: offer claiming 2^32-1 files.
	bad := []byte{ed2k.ProtoEDonkey, ed2k.OpOfferFiles, 0, 0, 0, 0, 0x36, 0x12, 0xFF, 0xFF, 0xFF, 0xFF}
	p.ProcessFrame(0, frameFor(1, testServerIP, bad))
	// Valid message.
	p.ProcessFrame(0, frameFor(1, testServerIP, ed2k.Encode(&ed2k.StatReq{Challenge: 1})))

	st := p.Stats()
	if st.FailStruct != 1 || st.FailSemantic != 1 || st.DecodedOK != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if r := st.UndecodedRate(); r < 0.66 || r > 0.67 {
		t.Fatalf("undecoded rate: %f", r)
	}
	if s := st.StructuralShare(); s != 0.5 {
		t.Fatalf("structural share: %f", s)
	}
}

func TestPipelineIgnoresThirdPartyAndNonUDP(t *testing.T) {
	sink := &memSink{}
	p := NewPipeline(testServerIP, [2]int{5, 11}, sink)
	// Traffic between two clients (not involving the server).
	p.ProcessFrame(0, frameFor(1, 2, ed2k.Encode(&ed2k.StatReq{Challenge: 1})))
	if len(sink.recs) != 0 {
		t.Fatal("third-party dialog recorded")
	}
	// Non-IPv4 ethernet and non-UDP IP.
	junk := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x86, 0xDD, 1, 2, 3}
	p.ProcessFrame(0, junk)
	tcp := netsim.EncodeIPv4(netsim.IPv4Header{Protocol: 6, Src: 1, Dst: testServerIP}, []byte("x"))
	p.ProcessFrame(0, netsim.EncodeEthernet(1, testServerIP, tcp))
	st := p.Stats()
	if st.EthMalformed != 1 {
		t.Fatalf("eth malformed: %d", st.EthMalformed)
	}
	if st.UDPDatagrams != 1 { // only the first stat req made it to UDP
		t.Fatalf("udp datagrams: %d", st.UDPDatagrams)
	}
}

func TestPipelineReassemblesFragments(t *testing.T) {
	sink := &memSink{}
	p := NewPipeline(testServerIP, [2]int{5, 11}, sink)
	// A large offer that fragments at MTU 600.
	offer := &ed2k.OfferFiles{Client: 1, Port: 1}
	for i := 0; i < 20; i++ {
		offer.Files = append(offer.Files, ed2k.FileEntry{
			ID:   ed2k.FileID{byte(i)},
			Tags: []ed2k.Tag{ed2k.StringTag(ed2k.FTFileName, "some very long filename here.mp3")},
		})
	}
	dg := netsim.EncodeUDP(7, testServerIP, 4672, 4665, ed2k.Encode(offer))
	h := netsim.IPv4Header{ID: 42, Protocol: netsim.ProtoUDP, Src: 7, Dst: testServerIP}
	frags := netsim.FragmentIPv4(h, dg, 600)
	if len(frags) < 2 {
		t.Fatal("test setup: no fragmentation")
	}
	for _, pkt := range frags {
		p.ProcessFrame(0, netsim.EncodeEthernet(7, testServerIP, pkt))
	}
	st := p.Stats()
	if st.Reassembled != 1 || st.Fragments != uint64(len(frags)) {
		t.Fatalf("fragments=%d reassembled=%d", st.Fragments, st.Reassembled)
	}
	if len(sink.recs) != 1 || len(sink.recs[0].Files) != 20 {
		t.Fatalf("reassembled offer lost: %d records", len(sink.recs))
	}
}

func TestQuickPipelineNeverPanicsOnGarbage(t *testing.T) {
	// Failure injection: arbitrary byte soup, truncated frames, and
	// random mutations of valid frames must be counted, never crash the
	// capture. Ten weeks of hostile clients is the operating regime.
	p := NewPipeline(testServerIP, [2]int{5, 11}, DiscardSink{})
	valid := frameFor(0x01020304, testServerIP, ed2k.Encode(&ed2k.StatReq{Challenge: 1}))
	f := func(raw []byte, mutPos uint16, mutVal byte) bool {
		p.ProcessFrame(0, raw)
		mutated := append([]byte(nil), valid...)
		mutated[int(mutPos)%len(mutated)] ^= mutVal | 1
		p.ProcessFrame(0, mutated)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	st := p.Stats()
	if st.Frames == 0 {
		t.Fatal("fuzz fed nothing")
	}
}

func tinySimConfig() SimConfig {
	cfg := DefaultSimConfig()
	cfg.Workload.NumClients = 400
	cfg.Workload.NumFiles = 4000
	cfg.Workload.VocabWords = 300
	cfg.Traffic.Duration = 4 * simtime.Hour
	return cfg
}

// runWorld runs cfg's world into a test-local pipeline writing to sink
// and folds the pipeline's counters and the capture's ledger into the
// report, the way an edtrace.Session does for a SimSource.
func runWorld(t testing.TB, cfg SimConfig, sink RecordSink) *Report {
	t.Helper()
	var ledger pcap.Ledger
	w, err := NewSimWorld(cfg, &ledger)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(cfg.ServerIP, cfg.FileBytePair, sink)
	var lastExpire simtime.Time
	rep, err := w.RunFrames(context.Background(), func(now simtime.Time, frame []byte) error {
		if now-lastExpire > simtime.Minute {
			p.ExpireReassembly(now)
			lastExpire = now
		}
		if err := p.ProcessFrame(now, frame); err != nil {
			return err
		}
		ledger.Capture(int(now / simtime.Second))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.LossPerSecond, rep.EthernetCaptured, rep.EthernetDropped = ledger.Account()
	rep.Pipeline = p.Stats()
	rep.DistinctClients = p.ClientAnonymizer().Count()
	rep.DistinctFiles = p.FileAnonymizer().Count()
	return rep
}

// TestCaptureTapPollsOnGrid: the taps feed the kernel buffer, a frame
// entering it empty arms a poll at the first grid instant strictly
// after the frame, the machine polls every pollInterval while frames
// remain, at most ServicePerPoll a poll, and an emptied buffer leaves
// nothing on the clock.
func TestCaptureTapPollsOnGrid(t *testing.T) {
	w := &SimWorld{
		cfg:   SimConfig{ServicePerPoll: 2},
		sched: simtime.NewScheduler(),
		buf:   pcap.NewKernelBuffer(1<<20, nil),
	}
	w.poll = w.drain
	type drained struct{ at, stamp simtime.Time }
	var got []drained
	w.deliver = func(stamp simtime.Time, _ []byte) error {
		got = append(got, drained{w.sched.Now(), stamp})
		return nil
	}
	ms := simtime.Millisecond
	produced := []simtime.Time{10 * ms, 100 * ms, 200 * ms, 200 * ms, 201 * ms, 202 * ms, 210 * ms, 2 * simtime.Second}
	for _, at := range produced {
		w.sched.At(at, func() { captureTap{w}.Frame(at, []byte{1}) })
	}
	w.sched.RunUntil(context.Background(), simtime.Hour)
	want := []drained{
		{50 * ms, 10 * ms},
		{150 * ms, 100 * ms}, // on a grid instant: the next one
		{250 * ms, 200 * ms}, {250 * ms, 200 * ms},
		{300 * ms, 201 * ms}, {300 * ms, 202 * ms},
		{350 * ms, 210 * ms},
		{2050 * ms, 2 * simtime.Second},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("drained (poll, frame) = %v\nwant %v", got, want)
	}
	// Eight frames, six polls, nothing left armed.
	if w.sched.Fired() != 14 || w.sched.Pending() != 0 || w.buf.Len() != 0 {
		t.Fatalf("fired %d, pending %d, buffered %d; want 14, 0, 0",
			w.sched.Fired(), w.sched.Pending(), w.buf.Len())
	}
}

func TestSimWorldEndToEnd(t *testing.T) {
	sink := &memSink{}
	rep := runWorld(t, tinySimConfig(), sink)
	if rep.Pipeline.Records == 0 {
		t.Fatal("no records produced")
	}
	if rep.Pipeline.Queries == 0 || rep.Pipeline.Answers == 0 {
		t.Fatalf("both directions must appear: %+v", rep.Pipeline)
	}
	if rep.DistinctClients == 0 || rep.DistinctFiles == 0 {
		t.Fatalf("anonymiser counters empty: %+v", rep)
	}
	if rep.EthernetCaptured == 0 {
		t.Fatal("tap saw nothing")
	}
	// Timestamps are rebased and non-decreasing.
	last := -1.0
	for _, r := range sink.recs {
		if r.T < last {
			t.Fatalf("timestamps not monotone: %f after %f", r.T, last)
		}
		last = r.T
	}
	if rep.String() == "" {
		t.Fatal("empty report")
	}
	// The swarm's decodable messages must appear as records (minus
	// capture losses and processing cutoffs, so >= 80%).
	sent := rep.SwarmStats.MessagesSent
	if rep.Pipeline.Queries < sent*8/10 {
		t.Fatalf("queries %d << sent %d", rep.Pipeline.Queries, sent)
	}
}

func TestSimWorldDeterminism(t *testing.T) {
	run := func() *Report {
		cfg := tinySimConfig()
		cfg.Workload.NumClients = 150
		cfg.Traffic.Duration = 2 * simtime.Hour
		return runWorld(t, cfg, DiscardSink{})
	}
	a, b := run(), run()
	if a.Pipeline != b.Pipeline {
		t.Fatalf("pipeline stats differ:\n%+v\n%+v", a.Pipeline, b.Pipeline)
	}
	if a.DistinctClients != b.DistinctClients || a.DistinctFiles != b.DistinctFiles {
		t.Fatal("anonymiser counters differ")
	}
	if a.EthernetCaptured != b.EthernetCaptured || a.EthernetDropped != b.EthernetDropped {
		t.Fatal("capture counters differ")
	}
}

func TestSimWorldCaptureLossUnderPressure(t *testing.T) {
	cfg := tinySimConfig()
	cfg.Workload.NumClients = 800
	// Strangle the capture machine so bursts overflow the buffer.
	cfg.KernelBufferBytes = 2 << 10
	cfg.ServicePerPoll = 1
	rep := runWorld(t, cfg, DiscardSink{})
	if rep.EthernetDropped == 0 {
		t.Fatal("no capture losses despite pressure")
	}
	// Losses must be recorded in the per-second series too.
	var seriesDrops uint64
	for _, s := range rep.LossPerSecond {
		seriesDrops += s.Dropped
	}
	if seriesDrops != rep.EthernetDropped {
		t.Fatalf("series drops %d != total %d", seriesDrops, rep.EthernetDropped)
	}
}

// TestNewSimWorldRejectsNonPositiveCapture: a capture machine that
// services no frames or buffers none is an error naming the field, not
// a silent substitute rate.
func TestNewSimWorldRejectsNonPositiveCapture(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*SimConfig)
	}{
		{"ServicePerPoll", func(c *SimConfig) { c.ServicePerPoll = 0 }},
		{"ServicePerPoll", func(c *SimConfig) { c.ServicePerPoll = -3 }},
		{"KernelBufferBytes", func(c *SimConfig) { c.KernelBufferBytes = 0 }},
		{"KernelBufferBytes", func(c *SimConfig) { c.KernelBufferBytes = -1 }},
	} {
		cfg := tinySimConfig()
		tc.mutate(&cfg)
		_, err := NewSimWorld(cfg, nil)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err = %v, want an error naming the field", tc.field, err)
		}
	}
}

// TestPendingFollowsOpenSessions: over a simulated week, what waits on
// the clock is bounded by the sessions open at once — each holds at
// most three pending events (its offers, its pings, its next randomly
// placed message) — plus a constant for the engine, the capture
// machine's timers and the frames in flight. Pre-scheduling every
// message of the capture instead would put the whole week's traffic
// there (116,855 events for this world at its start).
func TestPendingFollowsOpenSessions(t *testing.T) {
	cfg := tinySimConfig()
	cfg.Traffic.Duration = simtime.Week
	w, err := NewSimWorld(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	if _, err := w.RunFrames(context.Background(), func(simtime.Time, []byte) error {
		peak = max(peak, w.sched.Pending())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	eng, err := workload.NewEngine(defaultSpec(cfg.Workload, cfg.Traffic.Duration), cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	for _, ok := eng.Next(); ok; _, ok = eng.Next() {
	}
	t.Logf("peak pending %d, max active sessions %d", peak, eng.MaxActiveSeen())
	if bound := 3*eng.MaxActiveSeen() + 64; peak > bound {
		t.Fatalf("peak pending events %d > 3 × %d open sessions + 64", peak, eng.MaxActiveSeen())
	}
}

// TestIndexFollowsRecentOffers is TestPendingFollowsOpenSessions' twin
// for the server's index: over one simulated week at 400 clients, the
// sources the index holds after each sweep are never more than the
// distinct (client, file) pairs offered in the last SourceTTL +
// SweepEvery. A source is one client's offer of one file, refreshed in
// place, so a swept index holds at most those pairs; an index that is
// never swept keeps every provider that ever offered.
func TestIndexFollowsRecentOffers(t *testing.T) {
	cfg := tinySimConfig()
	cfg.Traffic.Duration = simtime.Week
	w, err := NewSimWorld(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The offers the server receives, read from the frames its uplink
	// delivers the way the server reads them.
	type pair struct {
		client ed2k.ClientID
		file   ed2k.FileID
	}
	offered := map[pair]simtime.Time{}
	reasm := netsim.NewReassembler()
	serve := w.uplink.Deliver
	w.uplink.Deliver = func(now simtime.Time, frame []byte) {
		serve(now, frame)
		ip, err := netsim.DecodeEthernet(frame)
		if err != nil {
			return
		}
		hdr, payload, err := netsim.DecodeIPv4(ip)
		if err != nil || hdr.Protocol != netsim.ProtoUDP {
			return
		}
		dg, ok := reasm.Push(now, hdr, payload)
		if !ok {
			return
		}
		_, body, err := netsim.DecodeUDP(hdr.Src, hdr.Dst, dg)
		if err != nil {
			return
		}
		msg, err := ed2k.Decode(body)
		o, ok := msg.(*ed2k.OfferFiles)
		if err != nil || !ok {
			return
		}
		for _, f := range o.Files {
			offered[pair{ed2k.ClientID(hdr.Src), f.ID}] = now
		}
	}
	w.sched.Every(simtime.Minute, reasm.Expire)

	// Registered after the world's own sweep, so at each instant this
	// reads the index that sweep has just left.
	window := w.srv.SourceTTL + server.SweepEvery
	worst, checks := 0.0, 0
	w.sched.Every(server.SweepEvery, func(now simtime.Time) {
		recent := 0
		for p, at := range offered {
			if now-at > window {
				delete(offered, p)
			} else {
				recent++
			}
		}
		if recent == 0 {
			return
		}
		worst = max(worst, float64(w.srv.Stats().IndexedSources)/float64(recent))
		checks++
	})
	if _, err := w.RunFrames(context.Background(), func(simtime.Time, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d sweeps: at most %.3f indexed sources per (client, file) pair offered in the last %v", checks, worst, window)
	if checks == 0 || worst > 1 {
		t.Fatalf("indexed sources reached %.2f × the pairs offered in the last %v (want ≤ 1)", worst, window)
	}
}

// TestSimWorldPlaysSpec runs examples/specs/smokeday.json the way
// `edsim -spec` does: a night phase at 0.12 sessions a minute, a day
// phase at 0.25, a diurnal curve peaking at 20:00 and a release at 12 h
// whose crowd multiplies arrivals by 5 for 2 h. The session starts of
// the night and of the day outside the crowd each follow the spec's
// rate curve (the 0.12 : 0.25 ratio times the diurnal curve) within
// 30 % (~48 and ~233 are expected), and the release's files are asked
// for on the wire from 12 h on and never before. A Traffic.Duration
// other than the spec's span is an error.
func TestSimWorldPlaysSpec(t *testing.T) {
	spec, err := workload.LoadSpec("../../examples/specs/smokeday.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig()
	cfg.Workload = spec.WorldConfig()
	cfg.Traffic.Duration = spec.Total()
	cfg.Spec = spec
	bad := cfg
	bad.Traffic.Duration += simtime.Hour
	if _, err := NewSimWorld(bad, nil); err == nil || !strings.Contains(err.Error(), "Traffic.Duration") {
		t.Errorf("a spec over 24h with Traffic.Duration 25h: err = %v, want an error naming both", err)
	}
	w, err := NewSimWorld(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The same spec and world give the world's engine and this one the
	// same catalog, released files included.
	eng, err := workload.NewEngine(spec, cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	released := map[ed2k.FileID]bool{}
	for _, id := range eng.Releases()[0].IDs(eng.Catalog()) {
		released[id] = true
	}

	// Session starts so far, read at each edge of the segments.
	edges := []simtime.Time{0, 8 * simtime.Hour, 12 * simtime.Hour, 14 * simtime.Hour, spec.Total()}
	started := make([]float64, len(edges))
	for i, at := range edges[1:] {
		w.sched.At(at, func() { started[i+1] = float64(w.swarm.Stats().Sessions) })
	}
	rel := spec.Releases[0].At.Sim()
	var asked, early int
	if _, err := w.RunFrames(context.Background(), func(now simtime.Time, frame []byte) error {
		ip, _ := netsim.DecodeEthernet(frame)
		hdr, payload, err := netsim.DecodeIPv4(ip)
		if err != nil || hdr.Dst != cfg.ServerIP || hdr.MoreFrags || hdr.FragOff != 0 {
			return nil
		}
		_, body, err := netsim.DecodeUDP(hdr.Src, hdr.Dst, payload)
		if err != nil {
			return nil
		}
		if msg, err := ed2k.Decode(body); err == nil {
			if gs, ok := msg.(*ed2k.GetSources); ok && released[gs.Hashes[0]] {
				asked++
				if now < rel {
					early++
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// expected integrates the spec's rate curve over [from, to).
	expected := func(from, to simtime.Time) float64 {
		sum := 0.0
		for at := from + simtime.Minute/2; at < to; at += simtime.Minute {
			sum += spec.RateAt(at)
		}
		return sum
	}
	night := started[1]
	day := started[2] - started[1] + started[4] - started[3]
	wantNight := expected(edges[0], edges[1])
	wantDay := expected(edges[1], edges[2]) + expected(edges[3], edges[4])
	t.Logf("sessions: night %.0f (expected %.1f), day outside the crowd %.0f (expected %.1f), crowd %.0f; %d asks for the release",
		night, wantNight, day, wantDay, started[3]-started[2], asked)
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"night", night, wantNight}, {"day", day, wantDay}} {
		if c.got < 0.7*c.want || c.got > 1.3*c.want {
			t.Errorf("%s: %.0f sessions, the spec's curve expects %.1f (±30%%)", c.name, c.got, c.want)
		}
	}
	if asked == 0 || early > 0 {
		t.Errorf("%d asks for the release's files, %d of them before its instant %v", asked, early, rel)
	}
}
