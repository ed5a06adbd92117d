package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edtrace/internal/dataset"
	"edtrace/internal/xmlenc"
)

// writeRunDataset writes a small valid dataset of 40 records, t from 0.5 s
// to 20 s, and returns its directory.
func writeRunDataset(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	w, err := dataset.NewWriter(dir, dataset.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 20 {
		c, f := uint32(i%5), uint32(i%7)
		recs := []*xmlenc.Record{
			{T: float64(i) + 0.5, Client: c, Op: "OfferFiles", Dir: xmlenc.DirQuery,
				Files: []xmlenc.FileInfo{{ID: f, SizeKB: uint64(f+1) * 100}}},
			{T: float64(i) + 1, Client: c, Op: "GetSources", Dir: xmlenc.DirQuery,
				FileRefs: []uint32{(f + 1) % 7}},
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.SetCounters(5, 7)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// setMaxT rewrites the manifest at dir with max_t = v, or without one
// when v is nil.
func setMaxT(t *testing.T, dir string, v *float64) {
	t.Helper()
	man, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.MaxT = v
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// countPasses makes forEach count the passes Run makes for the rest of
// the test.
func countPasses(t *testing.T) *int {
	n := new(int)
	t.Cleanup(func() { forEach = dataset.ForEach })
	forEach = func(dir string, fn func(*xmlenc.Record) error) error {
		*n++
		return dataset.ForEach(dir, fn)
	}
	return n
}

func render(r *Result) string {
	return r.Bias.Render() + r.Figures.Render()
}

// TestRunReadsOnce: with max_t in the manifest, verification, the figures
// and the windows are one pass, and the figures are the full window's.
// Without it a pre-pass finds the span, and the output is the same.
func TestRunReadsOnce(t *testing.T) {
	dir := writeRunDataset(t)
	passes := countPasses(t)
	opts := Options{Verify: true, Windows: 4}
	res, err := Run(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if *passes != 1 {
		t.Fatalf("%d passes over a manifest with max_t, want 1", *passes)
	}
	if !res.Verify.OK() || res.Verify.Records != 40 {
		t.Fatalf("verify: %+v", res.Verify)
	}
	if len(res.Bias.Windows) != 4 || res.Figures != res.Bias.Windows[0].Figures {
		t.Fatal("the figures are not the full window's")
	}
	if got := res.Bias.Windows[0].Span; got != 20+1e-9 {
		t.Fatalf("full window %v s, want 20+1e-9", got)
	}

	setMaxT(t, dir, nil)
	*passes = 0
	old, err := Run(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if *passes != 2 {
		t.Fatalf("%d passes over a manifest without max_t, want 2", *passes)
	}
	if got, want := render(old), render(res); got != want {
		t.Fatalf("without max_t:\n%s\nwith it:\n%s", got, want)
	}

	*passes = 0
	if _, err := Run(dir, Options{Verify: true}); err != nil {
		t.Fatal(err)
	}
	if *passes != 1 {
		t.Fatalf("%d passes without windows, want 1", *passes)
	}
}

// TestRunRefusesRecordPastMaxT: the manifest is input. A max_t below a
// record's t fails the pass, verified or not; one above every t is
// a violation that only Verify reports.
func TestRunRefusesRecordPastMaxT(t *testing.T) {
	dir := writeRunDataset(t)
	below := 19.999
	setMaxT(t, dir, &below)
	for _, opts := range []Options{{}, {Verify: true}, {Windows: 2}, {Verify: true, Windows: 8}} {
		_, err := Run(dir, opts)
		if err == nil || !strings.Contains(err.Error(), "record 40 has t = 20, past the manifest's max_t 19.999") {
			t.Errorf("%+v: err = %v", opts, err)
		}
	}

	above := 30.0
	setMaxT(t, dir, &above)
	res, err := Run(dir, Options{Windows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Bias.Windows[0].Span; got != 30+1e-9 {
		t.Fatalf("full window %v s, want the manifest's 30+1e-9", got)
	}
	res, err = Run(dir, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := "manifest max_t 30, largest t read 20"; len(res.Verify.Violations) != 1 || res.Verify.Violations[0] != want {
		t.Fatalf("violations %q, want [%q]", res.Verify.Violations, want)
	}
}
