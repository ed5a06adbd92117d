package analysis

import (
	"fmt"

	"edtrace/internal/dataset"
	"edtrace/internal/xmlenc"
)

// Options selects what Run computes besides the figures.
type Options struct {
	// Verify checks every invariant of internal/xmlenc/spec.md §4.
	Verify bool
	// Windows is the number of nested capture windows of the
	// finite-measurement-bias report, 2 to 8; 0 makes none.
	Windows int
}

// Result is what Run computed over one dataset.
type Result struct {
	Manifest *dataset.Manifest
	// Verify is the invariant check, nil unless Options.Verify.
	Verify *dataset.VerifyReport
	// Bias is the nested-window report, nil unless Options.Windows.
	Bias *BiasReport
	// Figures are the full capture's: Bias.Windows[0].Figures when there
	// are windows.
	Figures *Figures
}

// forEach is dataset.ForEach; a test counts Run's passes through it.
var forEach = dataset.ForEach

// Run analyses the dataset at dir in one dataset.ForEach pass, each
// record going to the invariant checker, if asked for, and to the
// windows' collectors, or without windows to the one collector.
//
// The windows need the capture's span before the pass: the manifest's
// max_t, or for a manifest without one a pre-pass that reads it off the
// records. The manifest is input like the chunks, so a record whose t
// exceeds its max_t fails the pass.
func Run(dir string, opts Options) (*Result, error) {
	man, err := dataset.Open(dir)
	if err != nil {
		return nil, err
	}
	res := &Result{Manifest: man}
	var check *dataset.Checker
	if opts.Verify {
		check = dataset.NewChecker(man)
	}
	span, spanKnown := 0.0, man.MaxT != nil
	if spanKnown {
		span = *man.MaxT
	} else if opts.Windows != 0 {
		if err := forEach(dir, func(r *xmlenc.Record) error {
			if r.T > span {
				span = r.T
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	var ws *WindowSet
	var col *Collector
	var sink func(*xmlenc.Record) error
	if opts.Windows != 0 {
		// The full window is a nanosecond longer than the span: the
		// report prints the windows' lengths, and TestGoldenAnalyzeOutput
		// pins them.
		if ws, err = NewWindowSet(span+1e-9, opts.Windows); err != nil {
			return nil, err
		}
		sink = ws.Write
	} else {
		col = NewCollector()
		sink = col.Write
	}
	var n uint64
	if err := forEach(dir, func(r *xmlenc.Record) error {
		n++
		if spanKnown && r.T > span {
			return fmt.Errorf("analysis: %s: record %d has t = %v, past the manifest's max_t %v", dir, n, r.T, span)
		}
		if check != nil {
			check.Write(r)
		}
		return sink(r)
	}); err != nil {
		return nil, err
	}

	if check != nil {
		res.Verify = check.Report()
	}
	if ws != nil {
		res.Bias = ws.Finalize()
		res.Figures = res.Bias.Windows[0].Figures
	} else {
		res.Figures = col.Finalize()
	}
	return res, nil
}
