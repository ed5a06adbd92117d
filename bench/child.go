package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"time"

	"edtrace/internal/core"
)

// Every set-up and every timed job that builds a capture pipeline runs
// in a child process of its own, the way edsim and edanalyze run it.
// The reason is the client anonymiser: it reproduces the paper's
// direct-index array as 4 MiB pages allocated on first touch, and the
// simulated clients' addresses are spread over the whole IPv4 space, so
// one pipeline maps several GB of which it touches a few MB. A fresh
// process gets those pages from the kernel already zeroed and pays only
// for what it touches. A process that builds a second pipeline reuses
// the first one's freed pages, and the Go runtime must clear every one
// in full: the job would mostly measure memclr, and resident memory
// would grow to the mapped size. Timing is taken inside the child,
// around the job itself; process start is not part of any metric except
// setup_s, which the parent times from spawn to exit.

type childReq struct {
	Op    string `json:"op"`
	Seed  uint64 `json:"seed"`
	Sizes sizes  `json:"sizes"`
	Tmp   string `json:"tmp"`
	// Traced turns on the outside-the-program observers of a traced job
	// (progress callbacks, session metrics, queue sampling).
	Traced bool `json:"traced,omitempty"`
	// Heap makes the job read the live heap at end of stream instead of
	// being timed.
	Heap bool `json:"heap,omitempty"`
	// SessionFirst makes replay-hop time the Session pass before the
	// direct one.
	SessionFirst bool `json:"session_first,omitempty"`
	// ServerKey is the daemon's dialog key, for serve_capture's ladder.
	ServerKey uint32 `json:"server_key,omitempty"`
}

type childRes struct {
	WallNS   int64              `json:"wall_ns,omitempty"`
	CPUNS    int64              `json:"cpu_ns,omitempty"`
	Frames   uint64             `json:"frames,omitempty"`
	Records  uint64             `json:"records,omitempty"`
	Bytes    int64              `json:"bytes,omitempty"`
	Figures  string             `json:"figures,omitempty"`
	Stats    core.PipelineStats `json:"stats"`
	HeapMB   float64            `json:"heap_mb,omitempty"`
	QueueMax float64            `json:"queue_max,omitempty"`
	Metrics  metrics            `json:"metrics,omitempty"`
	Sum      float64            `json:"sum,omitempty"` // ladder rungs on the path, ns per frame
	Spans    []span             `json:"spans,omitempty"`
}

// childFlag marks a child invocation: `<exe> -child '<childReq JSON>'`.
const childFlag = "-child"

// childMain serves one request and returns the process exit code. The
// result is the last line of standard output.
func childMain(arg string) int {
	var req childReq
	if err := json.Unmarshal([]byte(arg), &req); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	var res *childRes
	var err error
	switch req.Op {
	case "replay-sim":
		res, err = childReplaySim(&req)
	case "replay-reference":
		res, err = childReplayReference(&req)
	case "replay-job":
		res, err = childReplayJob(&req)
	case "replay-ladder":
		res, err = childReplayLadder(&req)
	case "replay-hop":
		res, err = childReplayHop(&req)
	case "capture-ladder":
		res, err = childCaptureLadder(&req)
	case "analyze-setup":
		res, err = childAnalyzeSetup(&req)
	default:
		err = fmt.Errorf("unknown op %q", req.Op)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", req.Op, err)
		return 1
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// spawn runs one request in a child process, waits for it to end and
// returns its result with the wall time from spawn to exit.
func spawn(req childReq) (*childRes, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	arg, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe, childFlag, string(arg))
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	wall := time.Since(t0)
	if err != nil {
		return nil, wall, fmt.Errorf("child %s: %w", req.Op, err)
	}
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	var res childRes
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, wall, fmt.Errorf("child %s: bad result: %w", req.Op, err)
	}
	return &res, wall, nil
}
