package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"edtrace/internal/ed2k"
	"edtrace/internal/policy"
)

// ladder measures layers one at a time, from outside: each rung times a
// loop of calls into one package's public functions over the workload's
// own inputs, with one span per pass.
type ladder struct {
	tr     *tracer
	budget time.Duration
	parent int64
	m      metrics
}

func newLadder(tr *tracer, budget time.Duration, m metrics) *ladder {
	return &ladder{tr: tr, budget: budget, m: m}
}

// rung runs pass — which handles items items — until the rung's budget is
// spent (at least twice: the first pass warms caches and pools and is
// not counted) and returns the median nanoseconds per item.
func (l *ladder) rung(name string, items int, pass func()) float64 {
	pass()
	var perItem []float64
	deadline := time.Now().Add(l.budget)
	for len(perItem) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		pass()
		t1 := time.Now()
		l.tr.add(name, t0, t1, l.parent, 0)
		perItem = append(perItem, float64(t1.Sub(t0).Nanoseconds())/float64(items))
	}
	return median(perItem)
}

// allocsPer runs pass once more and returns heap allocations per item.
func allocsPer(items int, pass func()) float64 {
	before := mallocs()
	pass()
	return float64(mallocs()-before) / float64(items)
}

// repoFile opens a file of the repository by its path from the root,
// from the root (bench/run.sh) or from bench/ (go test).
func repoFile(rel string) ([]byte, error) {
	data, err := os.ReadFile(rel)
	if err != nil {
		data, err = os.ReadFile("../" + rel)
	}
	return data, err
}

// daemonRungs measures the daemon side of the journey on the request
// pool: framing+decode, index, answer encode, and — off the four
// workloads' path, as a baseline for a later abuse workload — the policy
// decision. It returns the sum of the rungs that are on the path of one
// round trip, in ns per request.
func daemonRungs(l *ladder, in *serveInputs) (float64, error) {
	pool := in.pool
	n := len(pool)

	// ed2k.stream_next_ns: StreamReader.Next over the request byte
	// stream — the framing and the decode the daemon does per message.
	var stream []byte
	for i := range pool {
		stream = append(stream, pool[i].frame...)
	}
	var decodeErr error
	next := l.rung("ed2k.stream_next", n, func() {
		sr := ed2k.NewStreamReader(bytes.NewReader(stream))
		for range pool {
			if _, err := sr.Next(); err != nil {
				decodeErr = err
			}
		}
	})
	if decodeErr != nil {
		return 0, fmt.Errorf("stream_next rung: %w", decodeErr)
	}
	l.m["ed2k.stream_next_ns"] = next

	// ed2k.decode_ns: the pooled UDP-dialect decode the capture uses, on
	// the same messages — requests and reference answers as the tap
	// mirrors them. Contained in stream_next on the daemon side.
	var raws [][]byte
	for i := range pool {
		raws = append(raws, ed2k.Encode(pool[i].msg))
		for _, a := range pool[i].ref {
			raws = append(raws, ed2k.Encode(a))
		}
	}
	decode := func() {
		for _, raw := range raws {
			m, err := ed2k.DecodePooled(raw)
			if err != nil {
				decodeErr = err
			}
			ed2k.Release(m)
		}
	}
	l.m["ed2k.decode_ns"] = l.rung("ed2k.decode", len(raws), decode)
	l.m["ed2k.decode_allocs"] = allocsPer(len(raws), decode)
	if decodeErr != nil {
		return 0, fmt.Errorf("decode rung: %w", decodeErr)
	}

	// server.handle_ns: Server.Handle on the preloaded reference index,
	// whole pool and per kind.
	const from = ed2k.ClientID(0x0B0B0B0B)
	handle := func(only reqKind, all bool) func() {
		return func() {
			for i := range pool {
				if all || pool[i].kind == only {
					in.ref.Handle(0, from, preloadPort, pool[i].msg)
				}
			}
		}
	}
	handleNS := l.rung("server.handle", n, handle(0, true))
	l.m["server.handle_ns"] = handleNS
	for _, k := range []reqKind{kindSearch, kindGetSources, kindOffer} {
		if in.perKind[k] > 0 {
			l.m["server.handle_ns."+kindNames[k]] = l.rung("server.handle."+kindNames[k], in.perKind[k], handle(k, false))
		}
	}

	// ed2k.encode_ns: the answers framed as the daemon frames them.
	var out []byte
	encode := l.rung("ed2k.encode", n, func() {
		for i := range pool {
			out = out[:0]
			for _, a := range pool[i].ref {
				out = append(out, ed2k.FrameTCP(a)...)
			}
		}
	})
	l.m["ed2k.encode_ns"] = encode

	// policy.decide_ns: one decision per request with the shipped
	// example policy. No workload loads a policy; this is a baseline.
	data, err := repoFile("examples/policy.json")
	if err != nil {
		return 0, err
	}
	cfg, err := policy.ParseConfig(data)
	if err != nil {
		return 0, err
	}
	eng, err := policy.New(*cfg, nil)
	if err != nil {
		return 0, err
	}
	pc := eng.NewConnClient()
	l.m["policy.decide_ns"] = l.rung("policy.decide", n-in.perKind[kindStat], func() {
		for i := range pool {
			switch m := pool[i].msg.(type) {
			case *ed2k.SearchReq:
				eng.AdmitSearch(pc, false)
			case *ed2k.OfferFiles:
				eng.AdmitOffer(pc, false)
			case *ed2k.GetSources:
				eng.AskBudget(pc, len(m.Hashes), false)
			}
		}
	})
	return next + handleNS + encode, nil
}
