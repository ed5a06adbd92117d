package edserverd

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"edtrace/internal/ed2k"
	"edtrace/internal/obs"
)

// TestDaemonMetricsEndpoint drives a small dialog and asserts the live
// HTTP endpoint a command serves over the daemon's registry exposes the
// daemon and index series in both formats.
func TestDaemonMetricsEndpoint(t *testing.T) {
	d := startTest(t, Config{})
	msrv, err := obs.Serve("127.0.0.1:0", d.Metrics(), d.Health)
	if err != nil {
		t.Fatal(err)
	}
	defer msrv.Close()
	conn, sr := dialAndLogin(t, d)
	if _, err := conn.Write(ed2k.FrameTCP(&ed2k.OfferFiles{Port: 4662, Files: []ed2k.FileEntry{
		testEntry(1, "mahler second.mp3"),
	}})); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}

	base := "http://" + msrv.Addr()
	get := func(path string) (int, string) {
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

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"edserverd_connections_total 1",
		"edserverd_logins_total 1",
		"edserverd_tcp_messages_total 2",
		"edserverd_tcp_flushes_total 2", // lockstep dialog: one write per answer
		"edserverd_connections_active 1",
		`edserver_received_total{op="OfferFiles"} 1`,
		"edserver_index_files 1",
		"edserver_handle_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get("/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json status %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v", err)
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz status %d while serving", code)
	}
}

// TestHealthzDuringShutdown exercises satellite 3 deterministically: the
// health check flips to 503 once shutdown begins, using obs.Handler
// directly so the probe cannot race the endpoint teardown.
func TestHealthzDuringShutdown(t *testing.T) {
	d, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	probe := httptest.NewServer(obs.Handler(d.Metrics(), d.Health))
	defer probe.Close()

	check := func() int {
		t.Helper()
		resp, err := http.Get(probe.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := check(); code != http.StatusOK {
		t.Fatalf("/healthz = %d before shutdown", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code := check(); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d after shutdown, want 503", code)
	}
	// The scrape path stays readable for the whole drain window.
	resp, err := http.Get(probe.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "edserverd_connections_active 0") {
		t.Fatalf("post-shutdown scrape: %d\n%s", resp.StatusCode, body)
	}
}
