// The curve is one simulated capture deflated ten ways on one goroutine;
// the race detector would multiply its cost and could find nothing.
//go:build !race

package dataset

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"edtrace/internal/core"
	"edtrace/internal/simtime"
	"edtrace/internal/xmlenc"
)

// The time/size curve behind chunkDeflateLevel is measured on the text
// the writer really compresses: a seeded simulated capture, decoded and
// anonymised by core.Pipeline, cut into chunks of defaultChunkBytes the
// way Writer.Write cuts them. The world is the benchmark's capture_replay
// one (bench/replay.go: 3000 clients, no scanner, no heavy profile) less
// its mangled frames, and level 4 costs its text the same 9.4 % over
// level 6 as it costs that workload's dataset on this seed.
var captureStream struct {
	once    sync.Once
	chunks  [][]byte // whole chunk documents: header, record lines, footer
	records int
	err     error
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
		world, err := core.NewSimWorld(cfg)
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

// BenchmarkChunkDeflateLevel prints the curve chunkDeflateLevel was
// chosen from: per deflate level, over the same capture text, the time
// to compress a record's share of a chunk, the bytes it becomes and the
// time to inflate it again (docs/architecture.md holds the table from
// the reference box). The members are built with gzip.NewWriterLevel
// directly, so the writer needs no knob for this.
//
//	go test -run '^$' -bench '^BenchmarkChunkDeflateLevel$' ./internal/dataset/
func BenchmarkChunkDeflateLevel(b *testing.B) {
	chunks, records := captureChunks(b)
	raw := totalLen(chunks)
	for _, level := range deflateLevels {
		b.Run(levelName(level), func(b *testing.B) {
			var members [][]byte
			b.SetBytes(int64(raw))
			for b.Loop() {
				members = deflateChunks(b, chunks, level)
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
// on the curve's capture text at chunkDeflateLevel: per record, and in MB
// of chunk text a second.
//
//	go test -run '^$' -bench '^BenchmarkInflate$' ./internal/dataset/
func BenchmarkInflate(b *testing.B) {
	chunks, records := captureChunks(b)
	members := deflateChunks(b, chunks, chunkDeflateLevel)
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

// TestCompressionLevelRule pins the rule chunkDeflateLevel was chosen by
// — the cheapest level whose output stays within 10 % of level 6's on
// capture text — from sizes alone, so it is deterministic: it fails when
// the constant moves off the rule or a Go release moves the curve.
func TestCompressionLevelRule(t *testing.T) {
	chunks, _ := captureChunks(t)
	size := func(level int) int { return totalLen(deflateChunks(t, chunks, level)) }
	ref, chosen, cheaper := size(6), size(chunkDeflateLevel), size(chunkDeflateLevel-1)
	t.Logf("level 6: %d B, level %d: %d B (%+.1f %%), level %d: %d B (%+.1f %%)", ref,
		chunkDeflateLevel, chosen, 100*float64(chosen-ref)/float64(ref),
		chunkDeflateLevel-1, cheaper, 100*float64(cheaper-ref)/float64(ref))
	if limit := ref + ref/10; chosen > limit {
		t.Errorf("level %d writes %d B, over 1.10 × level 6's %d B", chunkDeflateLevel, chosen, ref)
	} else if cheaper <= limit {
		t.Errorf("level %d writes %d B, still within 1.10 × level 6's %d B: the rule picks it, not level %d",
			chunkDeflateLevel-1, cheaper, ref, chunkDeflateLevel)
	}
}
