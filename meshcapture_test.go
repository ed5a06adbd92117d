package edtrace

import (
	"context"
	"testing"
	"time"

	"edtrace/internal/dataset"
	"edtrace/internal/edload"
	"edtrace/internal/edmesh"
	"edtrace/internal/edserverd"
	"edtrace/internal/workload"
	"edtrace/internal/xmlenc"
)

// TestMeshCapture is the full mesh deployment in one process: three
// meshed daemons serve a failing-over TCP swarm while a single
// MeshSource session captures all of them into one dataset whose
// records carry per-server provenance tags.
func TestMeshCapture(t *testing.T) {
	var daemons []*edserverd.Daemon
	var meshes []*edmesh.Mesh
	var addrs []string
	names := []string{"mesh-0", "mesh-1", "mesh-2"}
	for i, name := range names {
		d, err := edserverd.Start(edserverd.Config{Name: name, Shards: 2, ExpiryInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, d)
		addrs = append(addrs, d.TCPAddr().String())
		cfg := edmesh.Config{AnnounceInterval: 40 * time.Millisecond, PeerTTL: time.Hour}
		if i > 0 {
			cfg.Bootstrap = []string{daemons[0].UDPAddr().String()}
		}
		m, err := edmesh.New(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		meshes = append(meshes, m)
	}

	// Convergence before load, so forwards have somewhere to go.
	deadline := time.Now().Add(5 * time.Second)
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
		res, err := NewSession(src, WithFigures(), WithDataset(dir, false)).Run(context.Background())
		done <- result{res, err}
	}()

	if _, err := edload.Run(context.Background(), edload.Config{
		Target:               edload.Target{Addrs: addrs},
		Clients:              30,
		Workload:             workload.SmallConfig(5, 30),
		MaxMessagesPerClient: 60,
	}); err != nil {
		t.Fatal(err)
	}

	// Tear the mesh down; the last daemon's shutdown ends the session.
	for i, m := range meshes {
		m.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := daemons[i].Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
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
	// with at least two distinct servers (round-robin spreads 30 clients
	// over 3).
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
