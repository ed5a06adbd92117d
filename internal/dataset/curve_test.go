// The curve is one simulated capture deflated ten ways on one goroutine;
// the race detector would multiply its cost and could find nothing.
//go:build !race

package dataset

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"edtrace/internal/core"
	"edtrace/internal/simtime"
	"edtrace/internal/xmlenc"
)

// The time/size curve the chunk writer is held to is measured on the text
// it really compresses: a seeded simulated capture, decoded and
// anonymised by core.Pipeline, cut into chunks of defaultChunkBytes the
// way Writer.Write cuts them. The world is the benchmark's capture_replay
// one (bench/replay.go: 3000 clients, no scanner, no heavy profile) less
// its mangled frames, and compress/flate's level 4 costs its text the
// same 9.4 % over level 6 as it costs that workload's dataset on this
// seed.
var captureStream struct {
	once           sync.Once
	chunks         [][]byte // whole chunk documents: header, record lines, footer
	records        int
	clients, files uint32 // the anonymisers' counts, for a manifest
	err            error
}

// chunkSink assembles record lines into chunk documents.
type chunkSink struct {
	chunks  [][]byte
	raw     []byte
	records int
}

func (s *chunkSink) Write(r *xmlenc.Record) error {
	if s.raw == nil {
		s.raw = xmlenc.AppendHeader(make([]byte, 0, defaultChunkBytes+defaultChunkBytes/4), nil)
	}
	s.raw = xmlenc.AppendRecord(s.raw, r)
	s.records++
	if len(s.raw) >= defaultChunkBytes {
		s.seal()
	}
	return nil
}

func (s *chunkSink) seal() {
	if s.raw != nil {
		s.chunks = append(s.chunks, xmlenc.AppendFooter(s.raw))
		s.raw = nil
	}
}

func captureChunks(tb testing.TB) (chunks [][]byte, records int) {
	tb.Helper()
	cs := &captureStream
	cs.once.Do(func() {
		cfg := core.DefaultSimConfig()
		cfg.Workload.Seed = 3
		cfg.Workload.NumClients = 3_000
		cfg.Workload.NumFiles = 12_000
		cfg.Workload.ScannerFraction = 0
		cfg.Workload.HeavyFraction = 0
		cfg.Traffic.Duration = simtime.Hour
		world, err := core.NewSimWorld(cfg, nil)
		if err != nil {
			cs.err = err
			return
		}
		sink := &chunkSink{}
		pipe := core.NewPipeline(cfg.ServerIP, cfg.FileBytePair, sink)
		if _, cs.err = world.RunFrames(context.Background(), pipe.ProcessFrame); cs.err != nil {
			return
		}
		sink.seal()
		cs.chunks, cs.records = sink.chunks, sink.records
		cs.clients, cs.files = pipe.ClientAnonymizer().Count(), pipe.FileAnonymizer().Count()
	})
	if cs.err != nil {
		tb.Fatal(cs.err)
	}
	return cs.chunks, cs.records
}

func totalLen(bufs [][]byte) (n int) {
	for _, b := range bufs {
		n += len(b)
	}
	return n
}

// BenchmarkChunkDeflateLevel prints the curve: for the package's own
// deflater (the writer row) and, as reference, every level compress/flate
// offers, over the same capture text, the time to compress a record's
// share of a chunk, the bytes it becomes and the time to inflate it again
// (docs/architecture.md holds the table from the reference box).
//
//	go test -run '^$' -bench '^BenchmarkChunkDeflateLevel$' ./internal/dataset/
func BenchmarkChunkDeflateLevel(b *testing.B) {
	chunks, records := captureChunks(b)
	raw := totalLen(chunks)
	row := func(name string, deflate func(testing.TB, [][]byte) [][]byte) {
		b.Run(name, func(b *testing.B) {
			var members [][]byte
			b.SetBytes(int64(raw))
			for b.Loop() {
				members = deflate(b, chunks)
			}
			deflate := b.Elapsed()

			// As often again the other way, the way chunkOpener reads them.
			start := time.Now()
			z := new(gunzip)
			for i := 0; i < b.N; i++ {
				inflateMembers(b, z, members)
			}
			inflate := time.Since(start)

			b.ReportMetric(float64(deflate.Nanoseconds())/float64(b.N)/float64(records), "deflate-ns/record")
			b.ReportMetric(float64(totalLen(members))/float64(records), "B/record")
			b.ReportMetric(float64(inflate.Nanoseconds())/float64(b.N)/float64(records), "inflate-ns/record")
			b.ReportMetric(float64(raw)/float64(records), "raw-B/record")
		})
	}
	row("writer", deflateMembers)
	for _, level := range deflateLevels {
		row(levelName(level), func(tb testing.TB, chunks [][]byte) [][]byte { return deflateChunks(tb, chunks, level) })
	}
}

// inflateMembers reads every member through z, as chunkOpener does.
func inflateMembers(b *testing.B, z *gunzip, members [][]byte) {
	for _, m := range members {
		err := z.reset(bytes.NewReader(m))
		if err == nil {
			_, err = io.Copy(io.Discard, z)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInflate compares the read path's inflater with compress/gzip's
// on the curve's capture text as the writer deflates it: per record, and
// in MB of chunk text a second.
//
//	go test -run '^$' -bench '^BenchmarkInflate$' ./internal/dataset/
func BenchmarkInflate(b *testing.B) {
	chunks, records := captureChunks(b)
	members := deflateMembers(b, chunks)
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
	}
	b.Run("reader=gunzip", func(b *testing.B) {
		b.SetBytes(int64(totalLen(chunks)))
		z := new(gunzip)
		for b.Loop() {
			inflateMembers(b, z, members)
		}
		report(b)
	})
	b.Run("reader=compress-gzip", func(b *testing.B) {
		b.SetBytes(int64(totalLen(chunks)))
		gz := new(gzip.Reader)
		for b.Loop() {
			for _, m := range members {
				err := gz.Reset(bytes.NewReader(m))
				if err == nil {
					_, err = io.Copy(io.Discard, gz)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		report(b)
	})
}

// BenchmarkReadPass times one read of the curve's capture as a dataset of
// the writer's members: a bare ForEach, and Verify over it, per record.
// Both goroutines of the read path run, the read-ahead's inflating and
// the caller's decoding and checking.
//
//	go test -run '^$' -bench '^BenchmarkReadPass$' ./internal/dataset/
func BenchmarkReadPass(b *testing.B) {
	chunks, records := captureChunks(b)
	dir := b.TempDir()
	man := Manifest{Version: "1.0", Records: uint64(records),
		DistinctClients: captureStream.clients, DistinctFiles: captureStream.files}
	for i, m := range deflateMembers(b, chunks) {
		man.Chunks = append(man.Chunks, chunkName(i, true))
		if err := os.WriteFile(filepath.Join(dir, chunkName(i, true)), m, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	data, err := json.Marshal(&man)
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		b.Fatal(err)
	}
	report := func(b *testing.B) {
		b.SetBytes(int64(totalLen(chunks)))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
	}
	b.Run("pass=ForEach", func(b *testing.B) {
		for b.Loop() {
			n := 0
			if err := ForEach(dir, func(*xmlenc.Record) error { n++; return nil }); err != nil || n != records {
				b.Fatalf("read %d of %d records: %v", n, records, err)
			}
		}
		report(b)
	})
	b.Run("pass=Verify", func(b *testing.B) {
		for b.Loop() {
			rep, err := Verify(dir)
			if err != nil || !rep.OK() {
				b.Fatalf("Verify: %v %v", err, rep)
			}
		}
		report(b)
	})
}

// TestCompressionLevelRule pins the rule the writer is held to, from
// sizes alone, so it is deterministic: on capture text its members total
// no more than compress/flate level 4's — the level it deflated at before
// it had a deflater of its own, the cheapest within 10 % of level 6's —
// and so stay within 1.10 × level 6's. It fails when a change to the
// deflater, or a Go release that moves the curve, breaks either.
func TestCompressionLevelRule(t *testing.T) {
	chunks, _ := captureChunks(t)
	writer := totalLen(deflateMembers(t, chunks))
	level4, level6 := totalLen(deflateChunks(t, chunks, 4)), totalLen(deflateChunks(t, chunks, 6))
	t.Logf("writer: %d B; level 4: %d B (writer %+.1f %%); level 6: %d B (writer %+.1f %%)", writer,
		level4, 100*float64(writer-level4)/float64(level4), level6, 100*float64(writer-level6)/float64(level6))
	if writer > level4 {
		t.Errorf("the writer's members total %d B, over level 4's %d B", writer, level4)
	}
	if limit := level6 + level6/10; writer > limit {
		t.Errorf("the writer's members total %d B, over 1.10 × level 6's %d B", writer, level6)
	}
}
