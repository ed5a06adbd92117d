package edtrace

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"edtrace/internal/anonymize"
	"edtrace/internal/core"
	"edtrace/internal/edserverd"
	"edtrace/internal/obs"
	"edtrace/internal/pcap"
	"edtrace/internal/simtime"
)

// EmitFunc receives one timestamped ethernet frame from a Source.
// Ownership of the frame slice transfers to the consumer: the source
// must not reuse or mutate it after emit returns (the Session forwards
// it asynchronously). Returning an error (typically a cancelled context,
// surfaced by the Session) tells the source to stop producing.
type EmitFunc func(t simtime.Time, frame []byte) error

// Source yields timestamped ethernet frames — the uniform input of the
// capture pipeline, whether they come from the discrete-event simulator,
// a stored pcap file, or a live socket. A Source is single-use: one
// Frames call per value.
type Source interface {
	// Frames streams the whole capture into emit, stopping early when
	// ctx is cancelled or emit returns an error (which Frames returns).
	Frames(ctx context.Context, emit EmitFunc) error
}

// pipelineDefaulter is implemented by sources that know how the pipeline
// observing them should be configured; explicit options take precedence.
type pipelineDefaulter interface {
	pipelineDefaults() (serverIP uint32, fileBytePair [2]int, ok bool)
}

// liveSource is implemented by sources whose frames are mirrored by the
// very process they capture (LiveSource, and ServerSource, which embeds
// it): they fill the Session's queue themselves, and they share the CPUs
// with the daemons they observe, so the session keeps dataset
// compression on its own goroutine (see Session.setup).
type liveSource interface{ liveQueue() (*frameQueue, error) }

// SimSource runs the synthetic world (server, swarm, links, kernel
// buffer) and yields the frames its capture machine drains — the paper's
// whole measurement as a frame stream. In a session WithMetrics, the
// world shows on the registry while it runs (core.SimWorld's
// RegisterMetrics); its server's Handle stays untimed either way.
type SimSource struct {
	// Config is the full simulation configuration.
	Config core.SimConfig

	drops *pcap.Ledger  // the Session's, for the kernel buffer's overflow
	reg   *obs.Registry // the Session's WithMetrics registry, if any
	rep   *core.Report
}

// NewSimSource returns a simulator-backed source for cfg.
func NewSimSource(cfg core.SimConfig) *SimSource {
	return &SimSource{Config: cfg}
}

// Frames implements Source: it builds the world and runs it, forwarding
// every drained frame to emit in deterministic order.
func (s *SimSource) Frames(ctx context.Context, emit EmitFunc) error {
	w, err := core.NewSimWorld(s.Config, s.drops)
	if err != nil {
		return err
	}
	if s.reg != nil {
		w.RegisterMetrics(s.reg)
	}
	rep, err := w.RunFrames(ctx, core.FrameFunc(emit))
	s.rep = rep // surfaced via reportWorld when the session succeeds
	return err
}

func (s *SimSource) pipelineDefaults() (uint32, [2]int, bool) {
	return s.Config.ServerIP, s.Config.FileBytePair, true
}

// reportWorld puts the world's layer (its virtual duration, server and
// swarm statistics) in the final report; nil (not a simulation) adds
// nothing.
func (s *SimSource) reportWorld(rep *core.Report) {
	if s == nil || s.rep == nil {
		return
	}
	rep.VirtualDuration = s.rep.VirtualDuration
	rep.ServerStats = s.rep.ServerStats
	rep.SwarmStats = s.rep.SwarmStats
}

// PcapSource replays a stored pcap capture — offline decoding of a
// finished capture, on the identical code path as live processing.
type PcapSource struct {
	// Path is the pcap file to replay.
	Path string

	ran bool
}

// NewPcapSource returns a source replaying the pcap file at path.
func NewPcapSource(path string) *PcapSource {
	return &PcapSource{Path: path}
}

// Frames implements Source. Like every source it is single-use: a
// second call would silently accumulate stale counters, so it errors.
func (p *PcapSource) Frames(ctx context.Context, emit EmitFunc) error {
	if p.ran {
		return errors.New("edtrace: PcapSource already ran")
	}
	p.ran = true
	f, err := os.Open(p.Path)
	if err != nil {
		return fmt.Errorf("edtrace: %w", err)
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		return err
	}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := emit(rec.Time(), rec.Data); err != nil {
			return err
		}
	}
}

// ServerSource captures a running edserverd daemon's own accepted
// traffic: it installs itself as the daemon's tap — the software
// equivalent of the port mirror in front of the paper's server — and
// feeds every mirrored query and answer through the standard Session
// pipeline. The loop this closes: our server daemon serves real TCP/UDP
// load (cmd/edload), and our own capture infrastructure observes it
// end-to-end, exactly the deployment of the paper's §2.
//
// The daemon mirrors into the Session's queue, as a LiveSource does: if
// the pipeline falls behind, overflowing frames are dropped and counted
// as capture losses (Fig 2). The capture lasts until the daemon shuts
// down or Close is called; like every source it is single-use.
type ServerSource struct {
	*LiveSource
	detach    func()
	serverKey uint32
}

// NewServerSource attaches a capture to d (replacing any previous tap —
// a daemon carries at most one) with a queue of capacity mirrored
// messages (<= 0: the Session's own, 4096). The daemon keeps serving untapped
// after the capture ends, however it ends: Close, session cancellation,
// or a pipeline failure all detach this source's tap (and only its own:
// a successor capture attached meanwhile is left in place), so an
// untapped daemon never keeps paying the mirror's encoding cost.
func NewServerSource(d *edserverd.Daemon, capacity int) *ServerSource {
	s := &ServerSource{LiveSource: NewLiveSource(capacity), serverKey: d.ServerKey()}
	s.detach = d.SetTap(s.Mirror)
	go func() {
		select {
		case <-d.Done():
			s.Close() // drain what is queued, then end the session
		case <-s.q.done: // source closed first: nothing to watch for
		}
	}()
	return s
}

// Close detaches the tap and ends the capture (the Session processes
// what is queued and returns).
func (s *ServerSource) Close() {
	s.detach()
	s.LiveSource.Close()
}

// Frames implements Source; whatever ends the stream — Close or context
// cancellation — leaves the daemon untapped and the daemon-watcher
// goroutine released (Close, not just detach: otherwise a cancelled
// session would pin the watcher until daemon shutdown).
func (s *ServerSource) Frames(ctx context.Context, emit EmitFunc) error {
	defer s.Close()
	return s.LiveSource.Frames(ctx, emit)
}

// pipelineDefaults identifies the captured server, so the session needs
// no WithServerIP.
func (s *ServerSource) pipelineDefaults() (uint32, [2]int, bool) {
	return s.serverKey, anonymize.DefaultBytePair(), true
}
