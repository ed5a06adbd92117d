package edserverd

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"edtrace/internal/ed2k"
	"edtrace/internal/edload"
	"edtrace/internal/policy"
)

// benchPolicy is the policy under benchmark: admission rate limiting,
// search throttling with backpressure, and saturation shedding — the
// shipped examples/policy.json shape scaled to a loopback swarm.
func benchPolicy() *policy.Config {
	return &policy.Config{
		Admission: &policy.AdmissionSpec{PerIPRate: 4, PerIPBurst: 8},
		Messages: &policy.MessageSpec{
			SearchesPerSec: 2, SearchBurst: 4,
			ThrottleDelay: policy.Duration(100 * time.Millisecond),
		},
		Shed: &policy.ShedSpec{
			InflightHigh:  256,
			CheckInterval: policy.Duration(100 * time.Millisecond),
			Hold:          policy.Duration(500 * time.Millisecond),
		},
	}
}

// probe is a well-behaved client session measuring server-side
// responsiveness: StatReq round-trips, the class no policy throttles,
// so the measurement is queueing and scheduling delay — what every
// legitimate client experiences when the daemon is (or is not)
// defending itself.
type probe struct {
	conn *net.TCPConn
	sr   *ed2k.StreamReader
	seq  uint32
}

func newProbe(b *testing.B, d *Daemon) *probe {
	b.Helper()
	conn, err := net.DialTCP("tcp4", nil, d.TCPAddr().(*net.TCPAddr))
	if err != nil {
		b.Fatal(err)
	}
	sr := ed2k.NewStreamReader(conn)
	if _, err := conn.Write(ed2k.FrameTCP(&ed2k.LoginRequest{Nick: "probe", Port: 4662})); err != nil {
		b.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := sr.Next(); err != nil {
		b.Fatalf("probe login: %v", err)
	}
	return &probe{conn: conn, sr: sr}
}

func (p *probe) roundTrip(b *testing.B) time.Duration {
	b.Helper()
	p.seq++
	start := time.Now()
	if _, err := p.conn.Write(ed2k.FrameTCP(&ed2k.StatReq{Challenge: p.seq})); err != nil {
		b.Fatal(err)
	}
	p.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if _, err := p.sr.Next(); err != nil {
		b.Fatalf("probe answer: %v", err)
	}
	return time.Since(start)
}

// seedIndex populates the daemon's index so the search storm does real
// work: every "stormNNN" keyword the storm queries resolves to a
// posting list whose candidates must be scanned, matched and
// serialised. An empty index would make the flood nearly free and the
// benchmark meaningless.
func seedIndex(b *testing.B, d *Daemon, tokens, perToken int) {
	b.Helper()
	p := newProbe(b, d)
	defer p.conn.Close()
	const batch = 40
	var files []ed2k.FileEntry
	n := 0
	flush := func() {
		if len(files) == 0 {
			return
		}
		if _, err := p.conn.Write(ed2k.FrameTCP(&ed2k.OfferFiles{Port: 4662, Files: files})); err != nil {
			b.Fatal(err)
		}
		p.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		if _, err := p.sr.Next(); err != nil {
			b.Fatalf("seed offer ack: %v", err)
		}
		files = files[:0]
	}
	for tok := 0; tok < tokens; tok++ {
		for i := 0; i < perToken; i++ {
			var fid ed2k.FileID
			binary.LittleEndian.PutUint32(fid[:4], uint32(n))
			fid[15] = 0xED
			n++
			files = append(files, ed2k.FileEntry{
				ID: fid,
				Tags: []ed2k.Tag{
					ed2k.StringTag(ed2k.FTFileName, fmt.Sprintf("storm%03d release copy %d.mp3", tok, i)),
					ed2k.UintTag(ed2k.FTFileSize, uint32(n+1)<<20),
					ed2k.StringTag(ed2k.FTFileType, "Audio"),
				},
			})
			if len(files) == batch {
				flush()
			}
		}
	}
	flush()
}

// startStorm launches the combined abuse load — a search storm and a
// reconnect storm — and returns a stop function that waits it out.
func startStorm(addr string) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, prof := range []struct {
		name    string
		workers int
	}{
		{edload.AbuseSearchStorm, 24},
		{edload.AbuseReconnectStorm, 8},
	} {
		wg.Add(1)
		go func(name string, workers int) {
			defer wg.Done()
			edload.RunAbuse(ctx, edload.AbuseConfig{
				Addr: addr, Profile: name, Workers: workers,
				Duration: 10 * time.Minute, // the bench's cancel ends it
			})
		}(prof.name, prof.workers)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

func quantile(durs []time.Duration, q float64) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return s[i]
}

// benchProbe runs the probe b.N times against a daemon, optionally
// under storm, and reports p50/p99 round-trip latency.
func benchProbe(b *testing.B, pol *policy.Config, storm bool) {
	d, err := Start(Config{
		UDPAddr: "off",
		Policy:  pol,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	}()

	seedIndex(b, d, 1000, 8)

	// The probe connects before the storm: an established legitimate
	// session, like the millions the paper's server was already serving
	// when abuse arrived.
	p := newProbe(b, d)
	defer p.conn.Close()

	if storm {
		stop := startStorm(d.TCPAddr().String())
		defer stop()
		time.Sleep(500 * time.Millisecond) // let the storm reach full rate
	}

	durs := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		durs = append(durs, p.roundTrip(b))
	}
	b.StopTimer()
	b.ReportMetric(float64(quantile(durs, 0.50))/1e6, "p50-ms")
	b.ReportMetric(float64(quantile(durs, 0.99))/1e6, "p99-ms")
}

// BenchmarkPolicyAbuse is the headline hardening benchmark: a
// legitimate probe session's round-trip latency on an unloaded daemon
// (baseline), under combined reconnect + search storm with no policy
// (nopolicy), and under the same storm with the policy layer on
// (policy). The claim under test: policy p99 stays near baseline while
// nopolicy degrades.
func BenchmarkPolicyAbuse(b *testing.B) {
	b.Run("baseline", func(b *testing.B) { benchProbe(b, nil, false) })
	b.Run("nopolicy", func(b *testing.B) { benchProbe(b, nil, true) })
	b.Run("policy", func(b *testing.B) { benchProbe(b, benchPolicy(), true) })
}
