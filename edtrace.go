// Package edtrace reproduces "Ten weeks in the life of an eDonkey
// server" (Aidouni, Latapy, Magnien; arXiv:0809.3415): a complete
// measurement infrastructure for eDonkey directory-server traffic —
// capture, real-time decoding, anonymisation, XML dataset storage — plus
// the synthetic server/client world it observes, a real concurrent
// server daemon (internal/edserverd) with a TCP load generator
// (internal/edload), and the analyses that regenerate every figure of
// the paper.
//
// The public API is built around two concepts:
//
//   - A Source yields timestamped ethernet frames. Four implementations
//     cover the paper's settings and one more: SimSource (the
//     discrete-event world), PcapSource (offline replay of a stored
//     capture), LiveSource (real UDP traffic mirrored from a server
//     socket), and ServerSource (self-capture of a running edserverd
//     daemon's accepted traffic).
//   - A Session drives any Source through the capture pipeline of the
//     paper's Figure 1 — decode, anonymise, store — configured with
//     functional options (WithDataset, WithFigures, WithSink,
//     WithProgress, WithPcapTee, WithMetrics, ...) and executed by
//     Session.Run(ctx), which honours cancellation and closes every
//     sink on every exit path.
//
// The minimal run:
//
//	src := edtrace.NewSimSource(core.DefaultSimConfig())
//	res, err := edtrace.NewSession(src, edtrace.WithFigures()).Run(ctx)
//
// See README.md for the quickstart (including the daemon + load
// generator + self-capture loop), examples/ for runnable programs, and
// bench/README.md for the measured per-layer budget.
package edtrace
