package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"time"
)

// The reference box — a two-vCPU KVM guest — does not run at one speed.
// The same binary on the same seed measures ±25% from one minute to the
// next, on every workload at once (the two vCPUs share a core's worth of
// throughput in some spells and own one each in others; memory-heavy
// work moves more than a register loop). No estimator inside a 15 s run
// can average that out, so each run also measures, interleaved with its
// timed work, how fast the machine currently is at something that is not
// the repository's code, and reports throughput and CPU cost as they
// would read with the machine at its nominal speed:
//
//	throughput = measured throughput × (reference time now ÷ nominal)
//	cpu/item   = measured cpu/item   ÷ (reference time now ÷ nominal)
//
// For the batch workloads the reference is refTask below; for the serve
// workloads it is the closed loop against the bare echo server, which
// shares their dependence on the kernel's loopback path and scheduler
// (see serve.go). A change to the repository moves the measured side
// only, so a gain or a loss shows in full; a slow spell of the machine
// moves both sides and cancels to within the residual the README states.
// The raw, unnormalised numbers are kept in every result's notes.

const (
	// refNominal is refTask's duration on the reference box in its fast
	// spells; echoNominal the echo server's closed-loop rate there. They
	// only fix the scale of the normalised metrics.
	refNominal  = 30 * time.Millisecond
	echoNominal = 200_000.0 // round trips per second
)

// refData is a fixed megabyte of record-like text.
var refData = func() []byte {
	var b bytes.Buffer
	x := uint64(1)
	for b.Len() < 1<<20 {
		x = x*6364136223846793005 + 1442695040888963407
		fmt.Fprintf(&b, "<r t=\"%d.%03d\" c=\"%d\" op=\"GetSources\" dir=\"q\"><fr id=\"%d\"/></r>\n",
			x>>50, (x>>20)%1000, (x>>30)%3000, (x>>10)%100000)
	}
	return b.Bytes()
}()

// refTask is the batch workloads' reference: standard-library work of
// the kind their jobs are made of — gzip, gunzip, a pass over the text
// filling a map — on fixed input. Nothing in it is the repository's.
func refTask() time.Duration {
	t0 := time.Now()
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	// Writes to a bytes.Buffer cannot fail.
	_, _ = zw.Write(refData)
	_ = zw.Close()
	seen := make(map[uint32]int)
	if zr, err := gzip.NewReader(&z); err == nil {
		if out, err := io.ReadAll(zr); err == nil {
			for i := 0; i+8 <= len(out); i += 64 {
				seen[uint32(out[i])|uint32(out[i+1])<<8|uint32(out[i+2])<<16|uint32(out[i+5])<<24] += i
			}
		}
	}
	if len(seen) == 0 {
		panic("bench: reference task lost its data")
	}
	return time.Since(t0)
}

// refSlice runs the reference n times and returns the median, as a
// multiple of its nominal duration: 1.25 means the machine is currently
// a quarter slower than nominal.
func refSlice(n int) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = refTask().Seconds()
	}
	return median(v) / refNominal.Seconds()
}

// timedJobs runs job back to back until seconds have passed, with a
// reference slice before the first job and after every job. It returns,
// per job, items per second and CPU µs per item, each raw and normalised
// by the mean of the two reference slices around the job.
func timedJobs(seconds float64, items uint64, refTasks int, job func() (wall, cpu time.Duration, err error)) (rate, cpuUS, rawRate, rawCPU []float64, err error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	before := refSlice(refTasks)
	for len(rate) == 0 || time.Now().Before(deadline) {
		wall, cpu, err := job()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		after := refSlice(refTasks)
		slow := (before + after) / 2
		before = after
		r, c := float64(items)/wall.Seconds(), usPer(cpu, items)
		rawRate, rawCPU = append(rawRate, r), append(rawCPU, c)
		rate, cpuUS = append(rate, r*slow), append(cpuUS, c/slow)
	}
	return rate, cpuUS, rawRate, rawCPU, nil
}
