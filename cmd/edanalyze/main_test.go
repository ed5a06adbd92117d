package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"edtrace"
	"edtrace/internal/core"
	"edtrace/internal/dataset"
	"edtrace/internal/simtime"
	"edtrace/internal/xmlenc"
)

// goldenAnalyzeOutput is the SHA-256 of what `edanalyze -in DIR -verify
// -windows 4` prints over a small simulated capture (300 clients, 3,000
// files, 300 words, 3 h): the manifest line, the verify line, the nested
// windows' bias report and the figures. The dataset's gzip setting and
// the writer's width must not move it.
const goldenAnalyzeOutput = "017b351dac39c6a97f80c8c8a48c4af759bacbf79d726c8974d939f0e3a9124e"

// goldenCapture writes the capture of TestGoldenAnalyzeOutput into a new
// directory and returns it.
func goldenCapture(t *testing.T, gz bool) string {
	t.Helper()
	sim := core.DefaultSimConfig()
	sim.Workload.NumClients = 300
	sim.Workload.NumFiles = 3000
	sim.Workload.VocabWords = 300
	sim.Traffic.Duration = 3 * simtime.Hour
	dir := t.TempDir()
	if _, err := edtrace.NewSession(edtrace.NewSimSource(sim), edtrace.WithDataset(dir, gz)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return dir
}

// analyze runs `edanalyze -in dir -verify -windows 4` and returns what it
// prints.
func analyze(t *testing.T, dir string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-in", dir, "-verify", "-windows", "4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	return stdout.Bytes()
}

func TestGoldenAnalyzeOutput(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, gz := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs=%d/gz=%v", procs, gz), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				out := analyze(t, goldenCapture(t, gz))
				sum := sha256.Sum256(out)
				if got := hex.EncodeToString(sum[:]); got != goldenAnalyzeOutput {
					t.Errorf("output digest = %s over %d lines, want %s", got, bytes.Count(out, []byte("\n")), goldenAnalyzeOutput)
				}
			})
		}
	}
}

// TestAnalyzeOutputWithoutMaxT: a manifest without max_t, as a writer
// that did not record it left it, is read with a pre-pass for the span,
// and edanalyze prints the same bytes as over the manifest with it.
func TestAnalyzeOutputWithoutMaxT(t *testing.T) {
	maxT := regexp.MustCompile(`(?m)^  "max_t": .*\n`)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			dir := goldenCapture(t, true)
			with := analyze(t, dir)
			path := filepath.Join(dir, "manifest.json")
			man, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !maxT.Match(man) {
				t.Fatalf("manifest has no max_t:\n%s", man)
			}
			if err := os.WriteFile(path, maxT.ReplaceAll(man, nil), 0o644); err != nil {
				t.Fatal(err)
			}
			if without := analyze(t, dir); !bytes.Equal(with, without) {
				t.Fatalf("without max_t:\n%s\nwith it:\n%s", without, with)
			}
		})
	}
}

// TestWindowsOutOfRange: -windows takes 0 or 2 to 8; any other count is
// bad usage, refused before the dataset is read.
func TestWindowsOutOfRange(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []string{"-3", "1", "9", "20"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-in", dir, "-windows", n}, &stdout, &stderr); code != 2 {
			t.Errorf("-windows %s: exit %d, want 2 (%s)", n, code, stderr.String())
		} else if !strings.Contains(stderr.String(), "-windows takes 0 or 2 to 8") {
			t.Errorf("-windows %s: stderr %q", n, stderr.String())
		}
	}
}

// TestSpanPastDurationRange: a manifest's max_t sets the windows' span, and
// a span past time.Duration's ~292 years prints in hours instead of
// wrapping to a negative duration; spans within it print as before, down
// to the empty capture's.
func TestSpanPastDurationRange(t *testing.T) {
	dir := t.TempDir()
	w, err := dataset.NewWriter(dir, dataset.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&xmlenc.Record{Op: "StatReq", Dir: xmlenc.DirQuery}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.json")
	man, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	maxT := regexp.MustCompile(`(?m)^  "max_t": .*$`)
	if !maxT.Match(man) {
		t.Fatalf("manifest has no max_t:\n%s", man)
	}
	for _, tc := range []struct{ maxT, span string }{
		{"0", "0s"},
		{"9223372036", "2562047h47m16s"}, // the last whole second time.Duration holds
		{"9223372037", "2562048h"},
		{"1e308", "2.77777777777778e+304h"},
	} {
		if err := os.WriteFile(path, maxT.ReplaceAll(man, []byte(`  "max_t": `+tc.maxT+`,`)), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-in", dir, "-windows", "2"}, &stdout, &stderr); code != 0 {
			t.Fatalf("max_t %s: exit %d: %s", tc.maxT, code, stderr.String())
		}
		if want := "2 nested windows over " + tc.span + " of capture"; !strings.Contains(stdout.String(), want) {
			t.Errorf("max_t %s: output lacks %q:\n%s", tc.maxT, want, stdout.String())
		}
	}
}
