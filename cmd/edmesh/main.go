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
//
// The whole loop — convergence, a failing-over swarm with one node
// killed mid-run, peer-forwarded answers, a live node-labelled scrape
// and a verified merged dataset — is asserted by TestMeshCapture.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"edtrace"
	"edtrace/internal/edmesh"
	"edtrace/internal/edserverd"
	"edtrace/internal/obs"
)

func main() {
	var (
		n          = flag.Int("n", 3, "number of mesh nodes")
		shards     = flag.Int("shards", 0, "index shards per node (0 = 4×GOMAXPROCS, min 16)")
		datasetDir = flag.String("dataset", "", "merged capture: write the anonymised XML dataset here")
		gz         = flag.Bool("gz", false, "gzip merged-capture dataset chunks")
		figures    = flag.Bool("figures", false, "merged capture: print the paper's figures on shutdown")
		metrics    = flag.String("metrics", "", "serve the whole mesh's /metrics, /metrics.json and /healthz on this address")
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
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
	}
	cluster, err := startMesh(*n, *shards, reg, logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edmesh:", err)
		os.Exit(1)
	}
	if *metrics != "" {
		msrv, merr := obs.Serve(*metrics, reg, cluster.health)
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

	// Optional merged capture, then run until signalled.
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

// startMesh boots n named daemons and peers them with the mesh's
// defaults, bootstrapping every node off node 0's UDP address. With a
// registry, every node's metrics land in a node-labelled sub-registry of
// it.
func startMesh(n, shards int, reg *obs.Registry, logf func(string, ...any)) (*cluster, error) {
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
		cfg := edmesh.Config{Logf: logf}
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

type sessionResult struct {
	res *edtrace.Result
	err error
}

// runCapture runs the merged capture session in the background; it ends
// when the last daemon shuts down (the source closes itself).
func runCapture(src *edtrace.ServerSource, opts []edtrace.Option) <-chan sessionResult {
	done := make(chan sessionResult, 1)
	go func() {
		res, err := edtrace.NewSession(src, opts...).Run(context.Background())
		done <- sessionResult{res, err}
	}()
	return done
}
