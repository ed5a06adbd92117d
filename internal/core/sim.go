package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"edtrace/internal/anonymize"
	"edtrace/internal/clients"
	"edtrace/internal/ed2k"
	"edtrace/internal/netsim"
	"edtrace/internal/obs"
	"edtrace/internal/pcap"
	"edtrace/internal/randx"
	"edtrace/internal/server"
	"edtrace/internal/simtime"
	"edtrace/internal/workload"
)

// SimConfig assembles a full virtual capture: world, network and
// capture machine. The frames it drains are decoded by whoever runs the
// world (RunFrames), normally an edtrace.Session. The network and the
// capture machine's poll period are the constants below.
type SimConfig struct {
	Workload workload.Config
	Traffic  clients.TrafficConfig
	// Spec, when set, is the workload spec whose sessions the clients
	// play; it must span Traffic.Duration. Nil plays defaultSpec.
	Spec *workload.Spec

	// ServerIP locates the captured server (it listens on serverPort).
	ServerIP uint32

	// KernelBufferBytes bounds the capture buffer; with ServicePerPoll
	// and pollInterval it controls Fig 2's losses.
	KernelBufferBytes int
	// ServicePerPoll is the maximum frames decoded per poll — the
	// capture machine's service rate.
	ServicePerPoll int

	// FrameMangleRate corrupts a tiny fraction of frames on the wire,
	// producing the "not well-formed" packets of §2.3.
	FrameMangleRate float64

	// FileBytePair selects the fileID anonymisation bucket bytes of the
	// pipeline observing this world.
	FileBytePair [2]int
}

// The simulated network and capture machine.
const (
	// serverPort is the captured server's UDP port.
	serverPort = 4665
	// mtu is the link MTU: larger datagrams fragment (§2.3's rare IP
	// fragments come from jumbo offers).
	mtu = 1500
	// linkBitsPerSec is the access link bandwidth in each direction.
	linkBitsPerSec = 100e6
	// pollInterval is how often the capture machine drains the kernel
	// buffer (ServicePerPoll frames at most), so the service rate is
	// ServicePerPoll × 20 frames/s. It polls on the grid of multiples of
	// pollInterval, but only while the buffer holds frames (see
	// captureTap).
	pollInterval = 50 * simtime.Millisecond
)

// The default traffic, what a capture without a spec plays: Poisson
// session arrivals along a diurnal curve of amplitude 0.45 peaking at
// 06:00, sessions lasting a log-normal time of median 2 h, and
// defaultSessions sessions a client over the capture whatever its span
// (every client three, a tenth of them a fourth).
const defaultSessions = 3.1

// defaultSpec is the default traffic over a capture of span d.
func defaultSpec(wl workload.Config, d simtime.Time) *workload.Spec {
	s := &workload.Spec{
		Name:     "default",
		Seed:     wl.Seed,
		Arrivals: workload.ArrivalSpec{Process: "poisson"},
		Phases:   []workload.PhaseSpec{{Name: "capture", Duration: workload.Duration(d), Rate: 1}},
		Diurnal:  &workload.DiurnalSpec{Amplitude: 0.45, PeakHour: 6},
		Churn:    workload.ChurnSpec{SessionDuration: workload.DistSpec{Dist: "lognormal", Mean: workload.Duration(2 * simtime.Hour)}},
	}
	s.Phases[0].Rate = defaultSessions * float64(wl.NumClients) / s.ExpectedSessions()
	return s
}

// DefaultSimConfig returns a laptop-scale capture configuration
// (one virtual week, ~15 k clients) with the paper's mechanisms enabled.
func DefaultSimConfig() SimConfig {
	wl := workload.DefaultConfig()
	wl.NumClients = 15_000
	wl.NumFiles = 80_000
	return SimConfig{
		Workload:          wl,
		Traffic:           clients.DefaultTraffic(),
		ServerIP:          0xC0A80001, // 192.168.0.1
		KernelBufferBytes: 256 << 10,
		ServicePerPoll:    300, // 6000 frames/s service rate
		FrameMangleRate:   2e-6,
		FileBytePair:      anonymize.DefaultBytePair(),
	}
}

// Report aggregates everything a capture run produces.
type Report struct {
	// VirtualDuration is the simulated capture length.
	VirtualDuration simtime.Time
	// WallClock is how long the simulation took for real.
	WallClock time.Duration

	// Capture layer (Fig 2): the frames' consumer fills it in from the
	// capture's pcap.Ledger; RunFrames leaves it empty.
	EthernetCaptured uint64
	EthernetDropped  uint64
	LossPerSecond    []pcap.SecondStats

	// Pipeline layer (headline table). RunFrames leaves this and the
	// anonymisation layer empty: the frames' consumer fills them in.
	Pipeline PipelineStats

	// Anonymisation layer (Fig 3 and §2.5 counters).
	DistinctClients uint32
	DistinctFiles   uint32
	BucketSizes     []int
	MaxBucketIdx    int
	MaxBucketSize   int

	// World layer.
	ServerStats server.Stats
	SwarmStats  clients.Stats
}

// String prints the report in the shape of the paper's headline numbers.
func (r *Report) String() string {
	return fmt.Sprintf(
		"capture: %v virtual in %v wall\n"+
			"ethernet: %d captured, %d lost\n"+
			"udp: %d datagrams (%d fragments, %d reassembled, %d malformed)\n"+
			"edonkey: %d messages, %.4f%% undecoded (%.0f%% structurally incorrect)\n"+
			"distinct: %d clients, %d fileIDs\n"+
			"records: %d (%d queries, %d answers)",
		r.VirtualDuration, r.WallClock.Round(time.Millisecond),
		r.EthernetCaptured, r.EthernetDropped,
		r.Pipeline.UDPDatagrams, r.Pipeline.Fragments, r.Pipeline.Reassembled, r.Pipeline.UDPMalformed,
		r.Pipeline.EDMessages, 100*r.Pipeline.UndecodedRate(), 100*r.Pipeline.StructuralShare(),
		r.DistinctClients, r.DistinctFiles,
		r.Pipeline.Records, r.Pipeline.Queries, r.Pipeline.Answers)
}

// FrameFunc consumes one captured ethernet frame. Returning an error
// aborts the capture; the error is propagated out of the run.
type FrameFunc func(now simtime.Time, frame []byte) error

// SimWorld is the assembled virtual testbed.
type SimWorld struct {
	cfg    SimConfig
	sched  *simtime.Scheduler
	srv    *server.Server
	swarm  *clients.Swarm
	buf    *pcap.KernelBuffer
	uplink *netsim.Link
	dnlink *netsim.Link

	// deliver receives the frames drained from the kernel buffer;
	// RunFrames sets it. poll is the pre-bound drain.
	deliver FrameFunc
	poll    func()
	runErr  error
	ran     bool
	// polled is the virtual time of the capture machine's last poll, for
	// a scrape from another goroutine (RegisterMetrics).
	polled atomic.Int64
}

// captureTap mirrors both links into the kernel buffer. A frame that
// enters the buffer empty arms the capture machine's next poll, at the
// first grid instant strictly after the frame; drain keeps polling
// every pollInterval while frames remain. The polls thus fall on the
// instants the machine polled when it ran every pollInterval from the
// start, minus those that found the buffer empty: a frame produced on
// a grid instant waits for the next one, as it did whenever that
// instant's poll had been scheduled before the frame's arrival
// (docs/architecture.md, "The event core", gives the exceptions).
type captureTap struct{ w *SimWorld }

// Frame implements netsim.Tap.
func (c captureTap) Frame(now simtime.Time, frame []byte) {
	w := c.w
	empty := w.buf.Len() == 0
	if w.buf.Produce(now, frame) && empty {
		w.sched.At((now/pollInterval+1)*pollInterval, w.poll)
	}
}

// drain is one poll of the capture machine: it pushes up to
// ServicePerPoll frames to the deliver hook and polls again a
// pollInterval later if the buffer still holds frames.
func (w *SimWorld) drain() {
	if w.runErr != nil {
		return
	}
	w.polled.Store(int64(w.sched.Now()))
	for _, rec := range w.buf.Consume(w.cfg.ServicePerPoll) {
		if err := w.deliver(rec.Time(), rec.Data); err != nil {
			w.fail(err)
			return
		}
	}
	if w.buf.Len() > 0 {
		w.sched.At(w.sched.Now()+pollInterval, w.poll)
	}
}

// NewSimWorld builds the testbed: catalog, population, server, links with
// a capture tap on both directions, and the kernel buffer, whose overflow
// is counted in drops (nil: not counted).
func NewSimWorld(cfg SimConfig, drops *pcap.Ledger) (*SimWorld, error) {
	if cfg.ServicePerPoll <= 0 {
		return nil, fmt.Errorf("core: ServicePerPoll = %d (want > 0)", cfg.ServicePerPoll)
	}
	if cfg.KernelBufferBytes <= 0 {
		return nil, fmt.Errorf("core: KernelBufferBytes = %d (want > 0)", cfg.KernelBufferBytes)
	}
	if err := cfg.Traffic.Validate(); err != nil {
		return nil, err
	}
	spec := cfg.Spec
	if spec == nil {
		spec = defaultSpec(cfg.Workload, cfg.Traffic.Duration)
	} else if spec.Total() != cfg.Traffic.Duration {
		return nil, fmt.Errorf("core: Spec spans %v but Traffic.Duration is %v",
			workload.Duration(spec.Total()), workload.Duration(cfg.Traffic.Duration))
	}
	eng, err := workload.NewEngine(spec, cfg.Workload)
	if err != nil {
		return nil, err
	}

	w := &SimWorld{cfg: cfg, sched: simtime.NewScheduler()}
	w.srv = server.New("edtrace-sim", "simulated eDonkey server (ten weeks reproduction)")
	w.buf = pcap.NewKernelBuffer(cfg.KernelBufferBytes, drops)
	w.poll = w.drain

	w.uplink = netsim.NewLink(w.sched, linkBitsPerSec, 5*simtime.Millisecond)
	w.dnlink = netsim.NewLink(w.sched, linkBitsPerSec, 5*simtime.Millisecond)
	w.uplink.AttachTap(captureTap{w})
	w.dnlink.AttachTap(captureTap{w})

	mangle := randx.New(cfg.Workload.Seed, 0xDEAD10CC)
	var upID, downID uint16

	// Server side: deliver uplink frames, decode, answer on the downlink.
	// The loop encodes each answer at once, so the index builds them all
	// in one reused buffer, and each answer's bytes in another: SendUDP
	// copies them into the frame. The request is decoded into a pooled
	// message, released once its answers are sent.
	srvReasm := netsim.NewReassembler()
	var answers server.Answers
	var enc []byte
	w.uplink.Deliver = func(now simtime.Time, frame []byte) {
		ip, err := netsim.DecodeEthernet(frame)
		if err != nil {
			return
		}
		hdr, payload, err := netsim.DecodeIPv4(ip)
		if err != nil || hdr.Protocol != netsim.ProtoUDP {
			return
		}
		dg, ok := srvReasm.Push(now, hdr, payload)
		if !ok {
			return
		}
		udp, body, err := netsim.DecodeUDP(hdr.Src, hdr.Dst, dg)
		if err != nil {
			return
		}
		msg, err := ed2k.DecodePooled(body)
		if err != nil {
			return // the real server also drops garbage silently
		}
		for _, ans := range w.srv.HandleInto(&answers, now, ed2k.ClientID(hdr.Src), udp.SrcPort, msg) {
			downID++
			enc = ed2k.AppendEncode(enc[:0], ans)
			w.dnlink.SendUDP(cfg.ServerIP, hdr.Src, serverPort, udp.SrcPort, downID, enc, mtu)
		}
		ed2k.Release(msg)
	}

	// Client side: the swarm feeds the uplink; rare wire mangling breaks
	// a checksum so the capture sees "not well-formed" packets.
	send := func(srcIP uint32, srcPort uint16, payload []byte) {
		upID++
		dgID := upID
		if cfg.FrameMangleRate > 0 && mangle.Bool(cfg.FrameMangleRate) {
			dg := netsim.EncodeUDP(srcIP, cfg.ServerIP, srcPort, serverPort, payload)
			dg[len(dg)-1] ^= 0xA5 // breaks the UDP checksum
			h := netsim.IPv4Header{ID: dgID, Protocol: netsim.ProtoUDP, Src: srcIP, Dst: cfg.ServerIP}
			for _, pkt := range netsim.FragmentIPv4(h, dg, mtu) {
				w.uplink.Send(netsim.EncodeEthernet(srcIP, cfg.ServerIP, pkt))
			}
			return
		}
		w.uplink.SendUDP(srcIP, cfg.ServerIP, srcPort, serverPort, dgID, payload, mtu)
	}
	w.swarm, err = clients.NewSwarm(eng, cfg.Traffic, w.sched, send)
	if err != nil {
		return nil, err
	}

	// The server expires its stale reassemblies once a virtual minute,
	// and sweeps its index on the daemon's schedule.
	w.sched.Every(simtime.Minute, srvReasm.Expire)
	w.sched.Every(server.SweepEvery, w.srv.ExpireSources)

	return w, nil
}

// RegisterMetrics shows the world on reg while it runs: its server's
// index gauges (server.ExposeIndex) and the virtual time it has reached,
// as of its capture machine's last poll.
func (w *SimWorld) RegisterMetrics(reg *obs.Registry) {
	w.srv.ExposeIndex(reg)
	reg.GaugeFunc("edsim_virtual_seconds", "virtual time the simulated world has reached, as of its capture machine's last poll",
		func() float64 { return float64(w.polled.Load()) / float64(simtime.Second) })
}

// fail records the first error and stops the event loop after the
// currently executing event.
func (w *SimWorld) fail(err error) {
	w.runErr = err
	w.sched.Stop()
}

// RunFrames starts the swarm and executes the capture, delivering
// every frame the capture machine drains to fn. Extra drain time after
// the traffic horizon lets the capture machine empty its backlog. The
// run stops early when ctx is cancelled (the scheduler's loop looks at
// it, since an idle stretch has no event) or fn returns an error;
// either way the report carries the world-layer counters accumulated
// so far.
func (w *SimWorld) RunFrames(ctx context.Context, fn FrameFunc) (*Report, error) {
	if w.ran {
		return nil, errors.New("core: SimWorld already ran")
	}
	w.ran = true
	w.deliver = fn

	start := time.Now()
	w.swarm.Start()
	horizon := w.cfg.Traffic.Duration + 30*simtime.Second
	if err := w.sched.RunUntil(ctx, horizon); err != nil && w.runErr == nil {
		w.runErr = err
	}

	// On an early stop the report covers only the virtual span actually
	// simulated, so rates computed over VirtualDuration stay meaningful.
	dur := w.cfg.Traffic.Duration
	if w.runErr != nil && w.sched.Now() < dur {
		dur = w.sched.Now()
	}
	return &Report{
		VirtualDuration: dur,
		WallClock:       time.Since(start),
		ServerStats:     w.srv.Stats(),
		SwarmStats:      w.swarm.Stats(),
	}, w.runErr
}
