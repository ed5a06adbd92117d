package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"edtrace"
	"edtrace/internal/core"
	"edtrace/internal/simtime"
)

// goldenAnalyzeOutput is the SHA-256 of what `edanalyze -in DIR -verify
// -windows 4` prints over a small simulated capture (300 clients, 3,000
// files, 300 words, 3 h): the manifest line, the verify line, the nested
// windows' bias report and the figures. The dataset's gzip setting and
// the writer's width must not move it.
const goldenAnalyzeOutput = "017b351dac39c6a97f80c8c8a48c4af759bacbf79d726c8974d939f0e3a9124e"

func TestGoldenAnalyzeOutput(t *testing.T) {
	sim := core.DefaultSimConfig()
	sim.Workload.NumClients = 300
	sim.Workload.NumFiles = 3000
	sim.Workload.VocabWords = 300
	sim.Traffic.Duration = 3 * simtime.Hour
	for _, procs := range []int{1, 4} {
		for _, gz := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs=%d/gz=%v", procs, gz), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				dir := t.TempDir()
				if _, err := edtrace.NewSession(edtrace.NewSimSource(sim), edtrace.WithDataset(dir, gz)).Run(context.Background()); err != nil {
					t.Fatal(err)
				}
				var stdout, stderr bytes.Buffer
				if code := run([]string{"-in", dir, "-verify", "-windows", "4"}, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				sum := sha256.Sum256(stdout.Bytes())
				if got := hex.EncodeToString(sum[:]); got != goldenAnalyzeOutput {
					t.Errorf("output digest = %s over %d lines, want %s", got, bytes.Count(stdout.Bytes(), []byte("\n")), goldenAnalyzeOutput)
				}
			})
		}
	}
}
