package edtrace

import (
	"context"
	"errors"
	"sync/atomic"

	"edtrace/internal/anonymize"
	"edtrace/internal/edserverd"
)

// serverNamer is implemented by sources capturing several servers at
// once; the session builds a multi-server pipeline from it, stamping
// each record with the name of the server whose dialog it belongs to.
type serverNamer interface {
	serverNames() map[uint32]string
}

// MeshSource merges the self-capture taps of several edserverd daemons —
// a mesh — into one frame stream, producing a single dataset in which
// every record carries a per-server provenance tag (the srv attribute).
// This is the "distributed set of observation points" measurement the
// paper's conclusion argues for, as one capture session.
//
// All daemons share one bounded queue (one kernel buffer, as if one
// capture machine mirrored every server's port); if the pipeline falls
// behind, the overflow is dropped and counted as capture loss. The
// source ends when every daemon has shut down or Close is called. Like
// every source it is single-use.
type MeshSource struct {
	*LiveSource
	names    map[uint32]string
	detaches []func()
	alive    atomic.Int32
}

// NewMeshSource attaches a merged capture to the daemons (each gets its
// tap replaced) with a shared queue of queueFrames mirrored messages
// (<= 0: the 4096 default). Daemon names must be distinct and non-empty:
// they become the dataset's provenance tags.
func NewMeshSource(daemons []*edserverd.Daemon, queueFrames int) (*MeshSource, error) {
	if len(daemons) == 0 {
		return nil, errors.New("edtrace: mesh source needs at least one daemon")
	}
	s := &MeshSource{
		LiveSource: NewLiveSource(queueFrames),
		names:      make(map[uint32]string, len(daemons)),
	}
	byName := make(map[string]bool, len(daemons))
	for _, d := range daemons {
		name := d.Name()
		if name == "" {
			return nil, errors.New("edtrace: mesh daemons need names (Config.Name) for provenance tags")
		}
		if byName[name] {
			return nil, errors.New("edtrace: duplicate mesh daemon name " + name)
		}
		byName[name] = true
		s.names[d.ServerKey()] = name
	}
	s.alive.Store(int32(len(daemons)))
	for _, d := range daemons {
		s.detaches = append(s.detaches, d.SetTap(func(srcKey, dstKey uint32, payload []byte) {
			s.Mirror(srcKey, dstKey, payload)
		}))
		go func(d *edserverd.Daemon) {
			select {
			case <-d.Done():
				// The capture outlives individual daemons (that is the
				// failover experiment); only the last one ends it.
				if s.alive.Add(-1) == 0 {
					s.Close()
				}
			case <-s.done: // source closed first: nothing to watch for
			}
		}(d)
	}
	return s, nil
}

// Close detaches every tap and ends the capture (Frames drains the
// queue and returns).
func (s *MeshSource) Close() {
	for _, detach := range s.detaches {
		detach()
	}
	s.LiveSource.Close()
}

// Frames implements Source; however the stream ends, every tap is
// detached and the daemon watchers released.
func (s *MeshSource) Frames(ctx context.Context, emit EmitFunc) error {
	defer s.Close()
	return s.LiveSource.Frames(ctx, emit)
}

// serverNames identifies every captured server for the multi-server
// pipeline.
func (s *MeshSource) serverNames() map[uint32]string {
	return s.names
}

// pipelineDefaults satisfies the session's configuration probe; the
// multi-server map (serverNames) replaces the single server IP.
func (s *MeshSource) pipelineDefaults() (uint32, [2]int, bool) {
	return 0, anonymize.DefaultBytePair(), true
}
