// Command edcalibrate runs the sim-vs-real calibration loop: the same
// synthetic workload flows once through the discrete-event simulator
// and once through a real edserverd daemon under an edload TCP swarm,
// both captured by the standard Session pipeline, and the two record
// streams are compared opcode by opcode.
//
// The report prints each leg's traffic mix side by side with absolute
// percentage errors, the paired query→answer latency quantiles, and two
// summary scores: MAPE over the opcodes the real leg exercised and the
// Pearson correlation of the share vectors. Use it after changing the
// traffic model (internal/clients) or the server (internal/server) to
// see whether the simulator still predicts the deployment.
//
// Usage:
//
//	edcalibrate
//	edcalibrate -clients 200 -max-msgs 100 -sim-hours 24 -seed 9
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"edtrace/internal/obs/calibrate"
	"edtrace/internal/simtime"
)

func main() {
	var (
		nclients = flag.Int("clients", 100, "swarm size (both legs' population)")
		maxMsgs  = flag.Int("max-msgs", 80, "per-client message cap on the real leg")
		seed     = flag.Uint64("seed", 1, "population seed shared by both legs")
		simHours = flag.Float64("sim-hours", 4, "sim leg virtual capture length, hours")
		quiet    = flag.Bool("quiet", false, "suppress progress logging")
	)
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := calibrate.Run(ctx, calibrate.Config{
		Clients:              *nclients,
		MaxMessagesPerClient: *maxMsgs,
		Seed:                 *seed,
		SimDuration:          simtime.Time(*simHours * float64(simtime.Hour)),
		Logf:                 logf,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}
