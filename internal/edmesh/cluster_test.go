package edmesh

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"edtrace/internal/edserverd"
	"edtrace/internal/obs"
)

// scrape GETs base+path and returns the status and body.
func scrape(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestStartClusterLoneDaemon is the startup a daemon command runs
// without a mesh: one daemon under its own name, no peering layer, its
// series unlabelled on an endpoint served over the cluster's health,
// which answers 200 while serving and 503 once shutdown begins, the
// scrape staying readable through the drain.
func TestStartClusterLoneDaemon(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := StartCluster(1, edserverd.Config{ExpiryInterval: -1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Daemons) != 1 || len(c.Meshes) != 0 {
		t.Fatalf("%d daemons, %d meshes; want 1, 0", len(c.Daemons), len(c.Meshes))
	}
	if name := c.Daemons[0].Name(); name != "edserverd" {
		t.Fatalf("lone daemon named %q", name)
	}
	msrv, err := obs.Serve("127.0.0.1:0", reg, c.Health)
	if err != nil {
		t.Fatal(err)
	}
	defer msrv.Close()
	base := "http://" + msrv.Addr()

	code, body := scrape(t, base, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{"edserverd_connections_total 0", "edserver_index_files 0"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	for _, unwanted := range []string{"node=", "edmesh_"} {
		if strings.Contains(body, unwanted) {
			t.Errorf("a lone daemon's /metrics carries %q", unwanted)
		}
	}
	if code, _ := scrape(t, base, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz status %d while serving", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := scrape(t, base, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d after shutdown, want 503", code)
	}
	if code, body := scrape(t, base, "/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "edserverd_connections_active 0") {
		t.Fatalf("post-shutdown scrape: %d\n%s", code, body)
	}
}

// TestPortPlus: node i listens at the configured port + i; an
// ephemeral port, an empty address and "off" stay as they are.
func TestPortPlus(t *testing.T) {
	for _, tc := range []struct {
		addr string
		i    int
		want string
	}{
		{"127.0.0.1:4661", 0, "127.0.0.1:4661"},
		{"127.0.0.1:4661", 2, "127.0.0.1:4663"},
		{"127.0.0.1:0", 3, "127.0.0.1:0"},
		{":4665", 1, ":4666"},
		{"", 1, ""},
		{"off", 1, "off"},
	} {
		if got, err := portPlus(tc.addr, tc.i); err != nil || got != tc.want {
			t.Errorf("portPlus(%q, %d) = %q, %v; want %q", tc.addr, tc.i, got, err, tc.want)
		}
	}
	for _, bad := range []string{"127.0.0.1", "127.0.0.1:http"} {
		if got, err := portPlus(bad, 1); err == nil {
			t.Errorf("portPlus(%q, 1) = %q, want an error", bad, got)
		}
	}
}
