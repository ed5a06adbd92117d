package edtrace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"edtrace/internal/core"
	"edtrace/internal/dataset"
	"edtrace/internal/obs"
	"edtrace/internal/simtime"
	"edtrace/internal/xmlenc"
)

// TestSessionWithMetrics checks the pipeline's own counters agree with
// the session report, on a clean run and on a simulated capture whose
// kernel buffer overflows: every frame the world offered is on /metrics
// as processed or dropped, and the drops are the report's. It also checks
// that the queue gauges render.
func TestSessionWithMetrics(t *testing.T) {
	for _, in := range []struct {
		name  string
		sim   core.SimConfig
		lossy bool
	}{{"clean", tinySim(), false}, {"lossy", lossySim(), true}} {
		t.Run(in.name, func(t *testing.T) { testSessionWithMetrics(t, in.sim, in.lossy) })
	}
}

func testSessionWithMetrics(t *testing.T, sim core.SimConfig, lossy bool) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	res, err := NewSession(NewSimSource(sim), WithMetrics(reg), WithDataset(dir, true)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	p := rep.Pipeline
	if got := counterOf(reg, "edsession_frames_total"); got != p.Frames {
		t.Fatalf("frames counter %d, report %d", got, p.Frames)
	}
	if got := counterOf(reg, "edsession_records_total"); got != p.Records {
		t.Fatalf("records counter %d, report %d", got, p.Records)
	}
	if _, dropped := checkConservation(t, reg, rep.EthernetCaptured+rep.EthernetDropped); dropped != rep.EthernetDropped {
		t.Fatalf("/metrics dropped %d frames, the report %d", dropped, rep.EthernetDropped)
	}
	if lossy != (droppedBy(reg, "queue_full") > 0) {
		t.Fatalf("%d frames dropped on a full queue, lossy run: %v", droppedBy(reg, "queue_full"), lossy)
	}
	for _, reason := range []string{"closed", "aborted"} {
		if got := droppedBy(reg, reason); got != 0 {
			t.Fatalf("run dropped %d frames (%s)", got, reason)
		}
	}
	if counterOf(reg, "edsession_batches_total") == 0 {
		t.Fatal("no batches counted")
	}
	// The anonymiser gauges end on the report's own figures.
	for name, want := range map[string]int64{
		"edsession_anonymizer_clients":    int64(rep.DistinctClients),
		"edsession_anonymizer_files":      int64(rep.DistinctFiles),
		"edsession_anonymizer_max_bucket": int64(rep.MaxBucketSize),
	} {
		if got := reg.Gauge(name, "").Value(); got != want || want == 0 {
			t.Errorf("%s = %d, report says %d", name, got, want)
		}
	}
	// A few hundred clients: a few bytes of table each.
	if got, most := reg.Gauge("edsession_anonymizer_client_table_bytes", "").Value(), 64*int64(rep.DistinctClients); got <= 0 || got > most {
		t.Errorf("edsession_anonymizer_client_table_bytes = %d for %d clients, want in (0, %d]", got, rep.DistinctClients, most)
	}

	// Every chunk of the dataset was sealed once, the last by Close, and
	// sealing took time.
	man, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := counterOf(reg, "edsession_dataset_chunks_total"); got != uint64(len(man.Chunks)) || got == 0 {
		t.Errorf("edsession_dataset_chunks_total = %d, the manifest lists %d chunks", got, len(man.Chunks))
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"edsession_queue_capacity_batches",
		"edsession_queue_batches 0", // drained at end of run
		"edsession_dataset_seal_seconds_total",
		"edsession_dataset_seal_max_seconds",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, zero := range []string{"edsession_dataset_seal_seconds_total 0\n", "edsession_dataset_seal_max_seconds 0\n"} {
		if strings.Contains(buf.String(), zero) {
			t.Errorf("exposition has %q after a dataset was written", zero)
		}
	}
}

// TestSessionMetricsScrapedDuringRun: every series the session publishes
// is safe to render while the consumer is mid-stream — the anonymiser
// gauges in particular carry values out of tables only the consumer may
// touch. The race detector is the assertion.
func TestSessionMetricsScrapedDuringRun(t *testing.T) {
	reg := obs.NewRegistry()
	stop, scraped := make(chan struct{}), make(chan int)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		n := 0
		for {
			select {
			case <-stop:
				scraped <- n
				return
			case <-tick.C:
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
				}
				n++
			}
		}
	}()
	_, err := NewSession(NewSimSource(tinySim()), WithMetrics(reg), WithDataset(t.TempDir(), true)).Run(context.Background())
	close(stop)
	if n := <-scraped; n == 0 {
		t.Error("the registry was never scraped during the run")
	}
	if err != nil {
		t.Fatal(err)
	}
}

// gatedSource emits its frames (the first one's record will park the
// consumer in blockErrSink, the rest fill the queue behind it) and only
// then releases the sink — so the abort finds a deterministic number of
// frames in flight.
type gatedSource struct {
	frames  [][]byte
	release chan struct{}
}

func (s *gatedSource) Frames(ctx context.Context, emit EmitFunc) error {
	for i, f := range s.frames {
		if err := emit(simtime.Time(i)*simtime.Microsecond, f); err != nil {
			return err
		}
	}
	close(s.release)
	return nil
}

// blockErrSink blocks the pipeline on the first record until released,
// then fails it.
type blockErrSink struct{ release chan struct{} }

func (s *blockErrSink) Write(*xmlenc.Record) error {
	<-s.release
	return errors.New("gated sink failure")
}

// TestSessionMetricsDroppedInFlight: frames still in flight when the
// run aborts (a pipeline error, or equivalently a cancellation — both
// share the drop/drain accounting) are counted as dropped, not silently
// discarded. The source emits one frame short of what fits: the
// consumer's batch (the failing frame and the rest behind it), a full
// queue behind that, and a partial batch the producer still holds — all
// of them dropped.
func TestSessionMetricsDroppedInFlight(t *testing.T) {
	const inFlight = queueFrames + batchSize - 1
	release := make(chan struct{})
	src := &gatedSource{frames: benchFrames(2 * queueFrames)[:inFlight], release: release}
	reg := obs.NewRegistry()
	_, err := NewSession(src,
		WithServerIP(0x0A000001),
		WithMetrics(reg),
		WithSink(&blockErrSink{release: release}),
	).Run(context.Background())
	if err == nil || err.Error() != "gated sink failure" {
		t.Fatalf("sink error not surfaced: %v", err)
	}
	if got := droppedBy(reg, "aborted"); got != inFlight {
		t.Fatalf("aborted drops %d, want all %d in flight", got, inFlight)
	}
	if got := counterOf(reg, "edsession_frames_total"); got != 0 {
		t.Fatalf("frames counter %d, want 0 (first frame never completed)", got)
	}
}
