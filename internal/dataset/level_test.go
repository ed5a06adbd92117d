package dataset

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"edtrace/internal/xmlenc"
)

// deflateChunks compresses every chunk as its own gzip member with
// compress/gzip at level, the way writeChunkFile did before the package
// had a deflater, and returns the members: the reference rows of the
// curve, and datasets of every level for the readers.
func deflateChunks(tb testing.TB, chunks [][]byte, level int) [][]byte {
	tb.Helper()
	members := make([][]byte, len(chunks))
	var gz *gzip.Writer
	for i, chunk := range chunks {
		var out bytes.Buffer
		if gz == nil {
			var err error
			if gz, err = gzip.NewWriterLevel(&out, level); err != nil {
				tb.Fatal(err)
			}
		} else {
			gz.Reset(&out)
		}
		if _, err := gz.Write(chunk); err != nil {
			tb.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			tb.Fatal(err)
		}
		members[i] = out.Bytes()
	}
	return members
}

// deflateLevels are the efforts compress/flate offers, cheapest first.
var deflateLevels = []int{flate.HuffmanOnly, 1, 2, 3, 4, 5, 6, 7, 8, 9}

func levelName(level int) string {
	if level == flate.HuffmanOnly {
		return "huffman"
	}
	return fmt.Sprintf("level=%d", level)
}

// TestReadsChunksOfAnyLevel: the deflate effort is the writer's choice
// and not part of the format. The same records, stored as gzip members
// of every level compress/flate offers, read back identical through
// ForEach and clean through Verify — which is what keeps the datasets
// already on disk, deflated at level 6 or 4 by compress/gzip, readable.
func TestReadsChunksOfAnyLevel(t *testing.T) {
	src := t.TempDir()
	writeDataset(t, src, 1000, WriterOptions{chunkBytes: 6 << 10})
	man, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	var want, chunks [][]byte
	if err := ForEach(src, func(r *xmlenc.Record) error {
		want = append(want, xmlenc.AppendRecord(nil, r))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, name := range man.Chunks {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, data)
	}
	manifest, err := os.ReadFile(filepath.Join(src, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	manifest = bytes.ReplaceAll(manifest, []byte(`.xml"`), []byte(`.xml.gz"`))

	for _, level := range deflateLevels {
		t.Run(levelName(level), func(t *testing.T) {
			dir := t.TempDir()
			for i, m := range deflateChunks(t, chunks, level) {
				if err := os.WriteFile(filepath.Join(dir, chunkName(i, true)), m, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
				t.Fatal(err)
			}
			var i int
			if err := ForEach(dir, func(r *xmlenc.Record) error {
				if i < len(want) && !bytes.Equal(xmlenc.AppendRecord(nil, r), want[i]) {
					return fmt.Errorf("record %d differs from the one written", i)
				}
				i++
				return nil
			}); err != nil || i != len(want) {
				t.Fatalf("read back %d of %d records: %v", i, len(want), err)
			}
			if rep, err := Verify(dir); err != nil || !rep.OK() {
				t.Fatalf("Verify: %v %v", err, rep)
			}
		})
	}
}
