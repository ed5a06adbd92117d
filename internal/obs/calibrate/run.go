package calibrate

import (
	"context"
	"fmt"
	"time"

	"edtrace"
	"edtrace/internal/clients"
	"edtrace/internal/core"
	"edtrace/internal/edload"
	"edtrace/internal/edserverd"
	"edtrace/internal/simtime"
	"edtrace/internal/workload"
)

// Config sizes a calibration run. The zero value is usable; every field
// has a default matched to the short-mode test.
type Config struct {
	// Clients is the real-leg swarm size and the sim-leg population
	// (default 40). Both legs draw from the same workload catalog.
	Clients int
	// MaxMessagesPerClient bounds each real-leg session (default 50).
	MaxMessagesPerClient int
	// Seed feeds both legs' workload generation (default 1).
	Seed uint64
	// SimDuration is the sim leg's virtual capture length (default 2h).
	SimDuration simtime.Time
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (cfg *Config) defaults() {
	if cfg.Clients <= 0 {
		cfg.Clients = 40
	}
	if cfg.MaxMessagesPerClient <= 0 {
		cfg.MaxMessagesPerClient = 50
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.SimDuration <= 0 {
		cfg.SimDuration = 2 * simtime.Hour
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// Run executes both calibration legs and compares them.
//
// The sim leg is a Session over a SimSource; the real leg is an
// edserverd daemon under an edload swarm, self-captured by a
// ServerSource session — both using the same workload generator and
// traffic model, both measured by the same record Collector at the end
// of the standard pipeline.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg.defaults()
	wl := workload.SmallConfig(cfg.Seed, cfg.Clients)

	// --- Sim leg -----------------------------------------------------
	sim := core.DefaultSimConfig()
	sim.Workload = wl
	sim.Traffic = clients.DefaultTraffic() // the mix edload plans with
	sim.Traffic.Duration = cfg.SimDuration
	cfg.Logf("calibrate: sim leg — %d clients, %v virtual", cfg.Clients, cfg.SimDuration)
	simCol := NewCollector()
	if _, err := edtrace.NewSession(edtrace.NewSimSource(sim),
		edtrace.WithSink(simCol)).Run(ctx); err != nil {
		return nil, fmt.Errorf("sim leg: %w", err)
	}

	// --- Real leg ----------------------------------------------------
	cfg.Logf("calibrate: real leg — %d TCP clients × ≤%d msgs", cfg.Clients, cfg.MaxMessagesPerClient)
	d, err := edserverd.Start(edserverd.Config{UDPAddr: "off"})
	if err != nil {
		return nil, fmt.Errorf("real leg: %w", err)
	}
	realCol := NewCollector()
	sessErr := make(chan error, 1)
	go func() {
		_, err := edtrace.NewSession(edtrace.NewServerSource(d, 0),
			edtrace.WithSink(realCol)).Run(context.Background())
		sessErr <- err
	}()
	_, loadErr := edload.Run(ctx, edload.Config{
		Target:               edload.Target{Addrs: []string{d.TCPAddr().String()}},
		Clients:              cfg.Clients,
		Workload:             wl,
		MaxMessagesPerClient: cfg.MaxMessagesPerClient,
	})
	// Shutting the daemon down closes the source, ending the capture
	// session — do it even when the load generator failed.
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Shutdown(sctx); err != nil {
		return nil, fmt.Errorf("real leg shutdown: %w", err)
	}
	if err := <-sessErr; err != nil {
		return nil, fmt.Errorf("real leg capture: %w", err)
	}
	if loadErr != nil {
		return nil, fmt.Errorf("real leg load: %w", loadErr)
	}

	rep := Compare(simCol.Leg("sim"), realCol.Leg("real"))
	cfg.Logf("calibrate: MAPE %.1f%%, Pearson r %.4f", rep.MAPE, rep.Pearson)
	return rep, nil
}
