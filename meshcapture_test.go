package edtrace

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"edtrace/internal/dataset"
	"edtrace/internal/edload"
	"edtrace/internal/edmesh"
	"edtrace/internal/edserverd"
	"edtrace/internal/obs"
	"edtrace/internal/workload"
	"edtrace/internal/xmlenc"
)

// TestMeshCapture is the full mesh deployment in one process: three
// meshed daemons serve a failing-over TCP swarm, one of them killed
// mid-run, while a single NewMeshSource session captures all of them
// into one dataset whose records carry per-server provenance tags. The
// cluster starts as the daemon command starts it, and one endpoint serves
// every node's metrics, labelled by node, beside the capture's; it is
// scraped while the survivors are still up.
func TestMeshCapture(t *testing.T) {
	names := []string{"mesh-0", "mesh-1", "mesh-2"}
	reg := obs.NewRegistry()
	c, err := edmesh.StartCluster(len(names), edserverd.Config{Name: "mesh", ExpiryInterval: -1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		c.Shutdown(ctx)
		cancel()
	})
	daemons, meshes := c.Daemons, c.Meshes
	var addrs []string
	for _, d := range daemons {
		addrs = append(addrs, d.TCPAddr().String())
	}
	msrv, err := obs.Serve("127.0.0.1:0", reg, c.Health)
	if err != nil {
		t.Fatal(err)
	}
	defer msrv.Close()

	// Convergence before load, so forwards have somewhere to go: the
	// joiners announce to mesh-0 at once, and its next round, one 2 s
	// period later, tells each about the other.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, m := range meshes {
			if st := m.Stats(); st.PeersHealthy != len(names)-1 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("mesh did not converge")
		}
		time.Sleep(10 * time.Millisecond)
	}

	src, err := NewMeshSource(daemons, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	type result struct {
		res *Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := NewSession(src, WithFigures(), WithDataset(dir, false), WithMetrics(reg)).Run(context.Background())
		done <- result{res, err}
	}()

	// An all-Heavy population: big share lists and source asks give each
	// plan ~100 messages, enough traffic to kill a node mid-run.
	wl := workload.SmallConfig(7, 12)
	wl.HeavyFraction = 1.0
	wl.ScannerFraction = 0
	wl.PolluterFraction = 0
	victim := len(daemons) - 1
	loadDone := make(chan struct{})
	killed := make(chan bool, 1)
	go func() {
		for {
			select {
			case <-loadDone:
				killed <- false
				return
			case <-time.After(5 * time.Millisecond):
			}
			if daemons[victim].Stats().TCPMsgs >= 100 {
				meshes[victim].Close()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				err := daemons[victim].Shutdown(ctx)
				cancel()
				killed <- err == nil
				return
			}
		}
	}()
	st, err := edload.Run(context.Background(), edload.Config{
		Target:               edload.Target{Addrs: addrs},
		Clients:              12,
		Workload:             wl,
		MaxMessagesPerClient: 1200,
	})
	close(loadDone)
	if err != nil {
		t.Fatalf("swarm lost answers: %v", err)
	}
	if !<-killed {
		t.Fatalf("%s saw too little traffic to be killed mid-run (swarm sent %d)", names[victim], st.Sent)
	}
	if st.Failovers == 0 {
		t.Fatal("a node was killed mid-run but no session failed over")
	}
	select {
	case <-done:
		t.Fatalf("the merged capture ended with %s, while %d nodes still serve", names[victim], victim)
	default: // the capture outlives a node; the last one ends it
	}

	// Every survivor answered misses through the mesh.
	for i, m := range meshes[:victim] {
		if ms := m.Stats(); ms.ForwardsSent == 0 || ms.ForwardAnswers == 0 {
			t.Fatalf("%s merged no forwarded answers: %+v", names[i], ms)
		}
	}

	checkMeshScrape(t, "http://"+msrv.Addr(), names)

	// Tear the survivors down; the last daemon's shutdown ends the session.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	rep := r.res.Report
	if rep.Pipeline.Records == 0 || rep.Pipeline.Queries == 0 || rep.Pipeline.Answers == 0 {
		t.Fatalf("degenerate merged capture: %+v", rep.Pipeline)
	}

	// The dataset passes spec verification and its records are tagged
	// with at least two distinct servers (round-robin spreads the swarm
	// over all three, and the victim served 100 messages before it died).
	vrep, err := dataset.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !vrep.OK() {
		t.Fatalf("mesh dataset violates the spec:\n%v", vrep.Violations)
	}
	man, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Meta["servers"] != "mesh-0,mesh-1,mesh-2" {
		t.Fatalf("meta servers = %q", man.Meta["servers"])
	}
	tags := make(map[string]uint64)
	if err := dataset.ForEach(dir, func(rec *xmlenc.Record) error {
		tags[rec.Server]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tags[""] != 0 {
		t.Fatalf("%d records without a provenance tag", tags[""])
	}
	if len(tags) < 2 {
		t.Fatalf("provenance tags = %v, want >= 2 distinct servers", tags)
	}

	// The online figures group by the same tags.
	if got := len(r.res.Figures.PerServer); got != len(tags) {
		t.Fatalf("figures group %d servers, dataset has %d", got, len(tags))
	}
	var total uint64
	for _, st := range r.res.Figures.PerServer {
		if st.Records == 0 || st.Clients == 0 {
			t.Fatalf("empty server tally: %+v", st)
		}
		total += st.Records
	}
	if total != rep.Pipeline.Records {
		t.Fatalf("per-server records sum %d != %d total", total, rep.Pipeline.Records)
	}
}

// checkMeshScrape reads a loaded mesh's endpoint at base: the exposition
// carries every node's series under its node label and non-zero traffic
// counters (the merged capture's among them), the JSON variant decodes, and the health check passes while
// any node serves.
func checkMeshScrape(t *testing.T, base string, nodes []string) {
	t.Helper()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, n := range nodes {
		if !strings.Contains(body, `edserverd_tcp_messages_total{node="`+n+`"}`) {
			t.Errorf("/metrics has no series labelled node=%q", n)
		}
	}
	// Sum a family across its labelled series (every node contributes
	// a node="..." sub-series).
	sum := func(family string) float64 {
		var total float64
		for _, line := range strings.Split(body, "\n") {
			if !strings.HasPrefix(line, family+"{") && !strings.HasPrefix(line, family+" ") {
				continue
			}
			fields := strings.Fields(line)
			if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
				total += v
			}
		}
		return total
	}
	for _, family := range []string{
		"edserverd_tcp_messages_total",
		"edserverd_answers_total",
		"edserver_received_total",
		"edmesh_announces_sent_total",
		"edmesh_forwards_sent_total",
		"edsession_frames_total",
	} {
		if sum(family) == 0 {
			t.Errorf("%s is zero on a loaded mesh", family)
		}
	}

	code, body = get("/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json: status %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/metrics.json does not decode: %v", err)
	}
	if code, body = get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz: status %d %q with live nodes", code, body)
	}
}
