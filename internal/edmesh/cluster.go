package edmesh

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"

	"edtrace/internal/edserverd"
	"edtrace/internal/obs"
)

// Cluster is n daemons started together from one configuration: a lone
// daemon when n is 1, otherwise a mesh of n nodes peered by this
// package.
type Cluster struct {
	Daemons []*edserverd.Daemon
	// Meshes holds node i's peering layer; it is empty for a lone daemon.
	Meshes []*Mesh
}

// StartCluster starts n daemons from cfg. A lone daemon (n = 1) is cfg
// as given, its series registered into reg unlabelled. For n ≥ 2, node i
// is named "<cfg.Name>-i", listens on cfg's TCP and UDP hosts at port + i
// (a port of 0 stays ephemeral), registers its series into reg under
// node="<name>", and is peered with the mesh's defaults, every node after
// the first bootstrapping off node 0's UDP address; cfg.Logf also
// receives the mesh's lifecycle lines. A nil reg gives every daemon a
// private registry.
func StartCluster(n int, cfg edserverd.Config, reg *obs.Registry) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("edmesh: a cluster of %d daemons", n)
	}
	c := &Cluster{}
	if n == 1 {
		cfg.Metrics = reg
		d, err := edserverd.Start(cfg)
		if err != nil {
			return nil, err
		}
		c.Daemons = append(c.Daemons, d)
		return c, nil
	}
	base := cfg.Name
	if base == "" {
		base = "edserverd"
	}
	for i := 0; i < n; i++ {
		if err := c.startNode(i, base, cfg, reg); err != nil {
			c.Shutdown(context.Background())
			return nil, err
		}
	}
	return c, nil
}

// startNode starts mesh node i and peers it.
func (c *Cluster) startNode(i int, base string, cfg edserverd.Config, reg *obs.Registry) error {
	cfg.Name = fmt.Sprintf("%s-%d", base, i)
	var err error
	if cfg.TCPAddr, err = portPlus(cfg.TCPAddr, i); err != nil {
		return err
	}
	if cfg.UDPAddr, err = portPlus(cfg.UDPAddr, i); err != nil {
		return err
	}
	if reg != nil {
		cfg.Metrics = reg.Sub(obs.L("node", cfg.Name))
	}
	d, err := edserverd.Start(cfg)
	if err != nil {
		return err
	}
	c.Daemons = append(c.Daemons, d)
	mcfg := Config{Logf: cfg.Logf}
	if i > 0 {
		mcfg.Bootstrap = []string{c.Daemons[0].UDPAddr().String()}
	}
	m, err := New(d, mcfg)
	if err != nil {
		return err
	}
	c.Meshes = append(c.Meshes, m)
	return nil
}

// portPlus moves addr's port up by i. An empty or "off" address, and
// port 0, stay as they are.
func portPlus(addr string, i int) (string, error) {
	if addr == "" || addr == "off" {
		return addr, nil
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("edmesh: %w", err)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return "", fmt.Errorf("edmesh: port of %q: %w", addr, err)
	}
	if p == 0 {
		return addr, nil
	}
	return net.JoinHostPort(host, strconv.Itoa(p+i)), nil
}

// Health is the cluster's /healthz check: nil while any daemon serves,
// otherwise the last daemon's error.
func (c *Cluster) Health() error {
	var err error
	for _, d := range c.Daemons {
		if err = d.Health(); err == nil {
			return nil
		}
	}
	return err
}

// Shutdown detaches every peering layer, then shuts every daemon down
// within ctx. Like Daemon.Shutdown it is idempotent: a node already shut
// down is passed over.
func (c *Cluster) Shutdown(ctx context.Context) error {
	for _, m := range c.Meshes {
		m.Close()
	}
	var errs []error
	for _, d := range c.Daemons {
		errs = append(errs, d.Shutdown(ctx))
	}
	return errors.Join(errs...)
}
