// Command edmesh supervises a federated eDonkey mesh in one process: N
// edserverd daemons peered by internal/edmesh (gossip discovery,
// miss-forwarding, health-based ejection), optionally observed by a
// single merged capture session whose dataset tags every record with
// the name of the server that handled it — the distributed-observation
// deployment the paper's conclusion argues for.
//
// Usage:
//
//	edmesh -n 3                         # run a 3-node mesh until SIGINT
//	edmesh -n 3 -dataset /tmp/mesh      # ...with a merged capture
//	edmesh -n 3 -smoke                  # self-checking acceptance demo
//
// -smoke runs the whole loop unattended and exits non-zero on any
// failure: it waits for gossip convergence, drives a failing-over
// client swarm across every node, kills one daemon mid-run, and then
// verifies that (a) every client finished with zero lost answers, (b)
// queries were answered through peer forwards, and (c) the merged
// dataset verifies and carries at least two distinct provenance tags.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"edtrace"
	"edtrace/internal/dataset"
	"edtrace/internal/edload"
	"edtrace/internal/edmesh"
	"edtrace/internal/edserverd"
	"edtrace/internal/obs"
	"edtrace/internal/workload"
	"edtrace/internal/xmlenc"
)

func main() {
	var (
		n          = flag.Int("n", 3, "number of mesh nodes")
		shards     = flag.Int("shards", 0, "index shards per node (0 = 4×GOMAXPROCS, min 16)")
		announce   = flag.Duration("announce", 2*time.Second, "gossip announce interval")
		fanout     = flag.Int("fanout", 0, "peers asked per forwarded miss (0 = default 3)")
		fwdTimeout = flag.Duration("fwd-timeout", 0, "per-request forward timeout (0 = default 250ms)")
		datasetDir = flag.String("dataset", "", "merged capture: write the anonymised XML dataset here")
		gz         = flag.Bool("gz", false, "gzip merged-capture dataset chunks")
		figures    = flag.Bool("figures", false, "merged capture: print the paper's figures on shutdown")
		metrics    = flag.String("metrics", "", "serve the whole mesh's /metrics, /metrics.json and /healthz on this address")
		smoke      = flag.Bool("smoke", false, "run the self-checking acceptance demo and exit")
		quiet      = flag.Bool("quiet", false, "suppress lifecycle logging")
	)
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	if *n < 2 {
		fmt.Fprintln(os.Stderr, "edmesh: a mesh needs -n >= 2 nodes")
		os.Exit(1)
	}

	// One endpoint serves every node: each daemon (and its mesh layer)
	// registers into a node-labelled sub-registry of a shared root.
	// -smoke always binds one so it can assert against a live scrape.
	metricsAddr := *metrics
	if *smoke && metricsAddr == "" {
		metricsAddr = "127.0.0.1:0"
	}
	var reg *obs.Registry
	if metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	cluster, err := startMesh(*n, *shards, edmesh.Config{
		AnnounceInterval: *announce,
		FanOut:           *fanout,
		ForwardTimeout:   *fwdTimeout,
		Logf:             logf,
	}, reg, logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edmesh:", err)
		os.Exit(1)
	}
	if metricsAddr != "" {
		msrv, merr := obs.Serve(metricsAddr, reg, cluster.health)
		if merr != nil {
			cluster.shutdown()
			fmt.Fprintln(os.Stderr, "edmesh: metrics:", merr)
			os.Exit(1)
		}
		cluster.msrv = msrv
		logf("edmesh: metrics on http://%s/metrics", msrv.Addr())
	}
	for i, d := range cluster.daemons {
		logf("edmesh: %s tcp=%s udp=%s", d.Name(), d.TCPAddr(), cluster.udpAddrs[i])
	}

	if *smoke {
		os.Exit(cluster.runSmoke(logf))
	}

	// Interactive mode: optional merged capture, then run until signalled.
	capturing := *datasetDir != "" || *figures
	var session <-chan sessionResult
	if capturing {
		src, serr := edtrace.NewMeshSource(cluster.daemons, 0)
		if serr != nil {
			fmt.Fprintln(os.Stderr, "edmesh:", serr)
			os.Exit(1)
		}
		var opts []edtrace.Option
		if *datasetDir != "" {
			opts = append(opts, edtrace.WithDataset(*datasetDir, *gz))
		}
		if *figures {
			opts = append(opts, edtrace.WithFigures())
		}
		session = runCapture(src, opts)
		logf("edmesh: merged capture running (dataset=%q)", *datasetDir)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var early *sessionResult
	select {
	case s := <-sig:
		logf("edmesh: %v: shutting down", s)
	case r := <-session:
		early = &r
		logf("edmesh: merged capture ended, shutting down")
	}
	cluster.shutdown()

	for i, d := range cluster.daemons {
		st := d.Stats()
		ms := cluster.meshes[i].Stats()
		fmt.Printf("%s: %d conns, %d tcp msgs, %d answers; mesh %d/%d peers healthy, %d forwards sent, %d served, %d answers merged\n",
			d.Name(), st.Conns, st.TCPMsgs, st.Answers,
			ms.PeersHealthy, ms.PeersKnown, ms.ForwardsSent, ms.ForwardsServed, ms.ForwardAnswers)
	}
	if capturing {
		var r sessionResult
		if early != nil {
			r = *early
		} else {
			r = <-session
		}
		if r.err != nil {
			fmt.Fprintln(os.Stderr, "edmesh: capture:", r.err)
			os.Exit(1)
		}
		fmt.Println(r.res.Report)
		if r.res.Figures != nil {
			fmt.Print(r.res.Figures.Render())
		}
		if *datasetDir != "" {
			fmt.Printf("merged dataset written to %s\n", *datasetDir)
		}
	}
}

// cluster is a running mesh: n daemons, each with its peering layer.
type cluster struct {
	daemons  []*edserverd.Daemon
	meshes   []*edmesh.Mesh
	udpAddrs []string
	tcpAddrs []string
	msrv     *obs.Server
}

// health is the mesh's /healthz: serving while any node still is.
func (c *cluster) health() error {
	for _, d := range c.daemons {
		if d.Health() == nil {
			return nil
		}
	}
	return errors.New("all mesh nodes down")
}

// startMesh boots n named daemons and peers them, bootstrapping every
// node off node 0's UDP address. With a registry, every node's metrics
// land in a node-labelled sub-registry of it.
func startMesh(n, shards int, mcfg edmesh.Config, reg *obs.Registry, logf func(string, ...any)) (*cluster, error) {
	c := &cluster{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("mesh-%d", i)
		var nodeReg *obs.Registry
		if reg != nil {
			nodeReg = reg.Sub(obs.L("node", name))
		}
		d, err := edserverd.Start(edserverd.Config{
			Name:    name,
			Desc:    "edtrace mesh node",
			Shards:  shards,
			Metrics: nodeReg,
			Logf:    logf,
		})
		if err != nil {
			c.shutdown()
			return nil, err
		}
		c.daemons = append(c.daemons, d)
		c.udpAddrs = append(c.udpAddrs, d.UDPAddr().String())
		c.tcpAddrs = append(c.tcpAddrs, d.TCPAddr().String())
		cfg := mcfg
		if i > 0 {
			cfg.Bootstrap = []string{c.udpAddrs[0]}
		}
		m, err := edmesh.New(d, cfg)
		if err != nil {
			c.shutdown()
			return nil, err
		}
		c.meshes = append(c.meshes, m)
	}
	return c, nil
}

// shutdown tears the whole mesh down, peering layer first; the metrics
// endpoint serves 503s through the drain and closes last.
func (c *cluster) shutdown() {
	for _, m := range c.meshes {
		m.Close()
	}
	defer func() {
		if c.msrv != nil {
			c.msrv.Close()
		}
	}()
	for _, d := range c.daemons {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		if err := d.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "edmesh: shutdown:", err)
		}
		cancel()
	}
}

// converged reports whether every mesh sees every other node as a
// healthy peer.
func (c *cluster) converged() bool {
	for _, m := range c.meshes {
		if m.Stats().PeersHealthy != len(c.meshes)-1 {
			return false
		}
	}
	return true
}

// runSmoke is the acceptance demo: convergence, a failing-over swarm
// with one daemon killed mid-run, peer-forwarded answers, and a merged
// multi-server dataset — each condition checked, any failure fatal.
func (c *cluster) runSmoke(logf func(string, ...any)) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "edmesh smoke: FAIL: "+format+"\n", args...)
		return 1
	}
	deadline := time.Now().Add(15 * time.Second)
	for !c.converged() {
		if time.Now().After(deadline) {
			return fail("mesh did not converge within 15s")
		}
		time.Sleep(20 * time.Millisecond)
	}
	logf("edmesh smoke: %d nodes converged", len(c.daemons))

	src, err := edtrace.NewMeshSource(c.daemons, 0)
	if err != nil {
		return fail("mesh source: %v", err)
	}
	dir, err := os.MkdirTemp("", "edmesh-smoke-*")
	if err != nil {
		return fail("tempdir: %v", err)
	}
	defer os.RemoveAll(dir)
	session := runCapture(src, []edtrace.Option{edtrace.WithDataset(dir, false), edtrace.WithFigures()})

	// An all-Heavy population: big share lists and source asks give each
	// plan ~100 messages, enough traffic to kill a daemon mid-run.
	wl := workload.SmallConfig(7, 12)
	wl.RegularFraction = 0
	wl.HeavyFraction = 1.0
	wl.ScannerFraction = 0
	wl.PolluterFraction = 0

	victim := len(c.daemons) - 1
	loadDone := make(chan struct{})
	killed := make(chan bool, 1)
	go func() {
		defer close(killed)
		for {
			select {
			case <-loadDone:
				killed <- false
				return
			case <-time.After(5 * time.Millisecond):
			}
			if c.daemons[victim].Stats().TCPMsgs >= 100 {
				logf("edmesh smoke: killing %s mid-run", c.daemons[victim].Name())
				c.meshes[victim].Close()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				err := c.daemons[victim].Shutdown(ctx)
				cancel()
				killed <- err == nil
				return
			}
		}
	}()
	st, err := edload.Run(context.Background(), edload.Config{
		Target:               edload.Target{Addrs: c.tcpAddrs, Logf: logf},
		Clients:              12,
		Workload:             wl,
		MaxMessagesPerClient: 1200,
	})
	close(loadDone)
	if err != nil {
		return fail("swarm lost answers: %v", err)
	}
	if !<-killed {
		return fail("victim daemon saw too little traffic to be killed mid-run (sent=%d)", st.Sent)
	}
	if st.Failovers == 0 {
		return fail("daemon killed mid-run but no session failed over")
	}

	var fwdSent, fwdAnswers uint64
	for i, m := range c.meshes {
		if i == victim {
			continue
		}
		ms := m.Stats()
		fwdSent += ms.ForwardsSent
		fwdAnswers += ms.ForwardAnswers
	}
	if fwdSent == 0 || fwdAnswers == 0 {
		return fail("no miss was answered through the mesh (forwards sent=%d, answers merged=%d)", fwdSent, fwdAnswers)
	}

	// The metrics endpoint must serve sane non-zero counters while the
	// surviving nodes are still up.
	if msg := c.checkMetricsLive(); msg != "" {
		return fail("metrics: %s", msg)
	}
	logf("edmesh smoke: metrics endpoint serving live counters")

	// End the capture and verify the merged, tagged dataset.
	for i, m := range c.meshes {
		if i == victim {
			continue
		}
		m.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		serr := c.daemons[i].Shutdown(ctx)
		cancel()
		if serr != nil {
			return fail("shutdown %s: %v", c.daemons[i].Name(), serr)
		}
	}
	r := <-session
	if r.err != nil {
		return fail("merged capture: %v", r.err)
	}
	vrep, err := dataset.Verify(dir)
	if err != nil {
		return fail("dataset verify: %v", err)
	}
	if !vrep.OK() {
		return fail("merged dataset violates the spec: %v", vrep.Violations)
	}
	tags := map[string]uint64{}
	if err := dataset.ForEach(dir, func(rec *xmlenc.Record) error {
		tags[rec.Server]++
		return nil
	}); err != nil {
		return fail("dataset read: %v", err)
	}
	if tags[""] != 0 {
		return fail("%d records without a provenance tag", tags[""])
	}
	if len(tags) < 2 {
		return fail("provenance tags %v: want >= 2 distinct servers", tags)
	}

	fmt.Printf("edmesh smoke: OK — %d clients, %d sent, %d answered, %d failovers; %d forwards (%d answers merged); %d records across %d servers\n",
		st.Clients, st.Sent, st.Answers, st.Failovers, fwdSent, fwdAnswers, r.res.Report.Pipeline.Records, len(tags))
	return 0
}

// checkMetricsLive scrapes the running mesh's endpoint and verifies the
// exposition carries non-zero traffic counters, the JSON variant
// decodes, and the health check passes. Empty string means OK.
func (c *cluster) checkMetricsLive() string {
	base := "http://" + c.msrv.Addr()
	get := func(path string) (int, []byte, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}

	code, body, err := get("/metrics")
	if err != nil || code != http.StatusOK {
		return fmt.Sprintf("/metrics: status %d, err %v", code, err)
	}
	// Sum a family across its labelled series (every node contributes
	// a node="..." sub-series).
	sum := func(family string) float64 {
		var total float64
		for _, line := range strings.Split(string(body), "\n") {
			if !strings.HasPrefix(line, family+"{") && !strings.HasPrefix(line, family+" ") {
				continue
			}
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err == nil {
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
	} {
		if sum(family) == 0 {
			return fmt.Sprintf("%s is zero on a loaded mesh", family)
		}
	}

	code, body, err = get("/metrics.json")
	if err != nil || code != http.StatusOK {
		return fmt.Sprintf("/metrics.json: status %d, err %v", code, err)
	}
	var doc map[string]any
	if jerr := json.Unmarshal(body, &doc); jerr != nil {
		return fmt.Sprintf("/metrics.json does not decode: %v", jerr)
	}

	if code, _, err = get("/healthz"); err != nil || code != http.StatusOK {
		return fmt.Sprintf("/healthz: status %d, err %v (mesh still has live nodes)", code, err)
	}
	return ""
}

type sessionResult struct {
	res *edtrace.Result
	err error
}

// runCapture runs the merged capture session in the background; it ends
// when the last daemon shuts down (the MeshSource closes itself).
func runCapture(src *edtrace.MeshSource, opts []edtrace.Option) <-chan sessionResult {
	done := make(chan sessionResult, 1)
	go func() {
		res, err := edtrace.NewSession(src, opts...).Run(context.Background())
		done <- sessionResult{res, err}
	}()
	return done
}
