// Adversarial load profiles: the hostile half of edload. Where Run
// materialises a well-behaved client population, RunAbuse materialises
// the traffic the paper's honeypot-facing deployments actually saw —
// reconnect storms, search floods, slowloris swarms that hold sockets
// open forever, and index-spam campaigns stamping forged fixed-prefix
// fileIDs (the pollution signature of Fig. 3). An abuse run never
// aborts on an individual failure: refused connections, reaped sockets
// and empty throttled answers are the *expected* outcome against a
// policied daemon, and the stats report them instead of erroring.
package edload

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"edtrace/internal/ed2k"
	"edtrace/internal/randx"
)

// Abuse profile names.
const (
	// AbuseReconnectStorm opens, logs in and drops connections in a
	// tight loop — the accept choke point's adversary.
	AbuseReconnectStorm = "reconnect-storm"
	// AbuseSearchStorm holds sessions open and floods SearchReq at wire
	// speed — the search-throttle adversary.
	AbuseSearchStorm = "search-storm"
	// AbuseSlowloris opens sessions and goes silent, re-opening each
	// socket the server reaps — the idle-deadline adversary.
	AbuseSlowloris = "slowloris"
	// AbuseIndexSpam floods OfferFiles carrying forged fixed-prefix
	// fileIDs — the pollution-campaign / offer-throttle adversary.
	AbuseIndexSpam = "index-spam"
)

// AbuseProfiles lists the valid profile names.
func AbuseProfiles() []string {
	return []string{AbuseReconnectStorm, AbuseSearchStorm, AbuseSlowloris, AbuseIndexSpam}
}

// ForgedPrefix is the fixed two-byte fileID prefix every index-spam
// offer carries, mimicking the pollution tools whose stamped prefixes
// blew up the paper's first-two-byte anonymisation buckets.
var ForgedPrefix = [2]byte{0xBA, 0xAD}

// AbuseConfig parameterises one adversarial run.
type AbuseConfig struct {
	// Addr is the target server's TCP address.
	Addr string
	// Profile selects the attack (see the Abuse* constants).
	Profile string
	// Workers is the number of concurrent attackers (default 16).
	Workers int
	// Duration bounds the run's wall clock (default 5s).
	Duration time.Duration
	// Seed drives the deterministic attack payloads.
	Seed uint64
	// Logf, when set, receives lifecycle lines.
	Logf func(format string, args ...any)
}

// AbuseStats aggregates a completed abuse run. High Refused, Reaped and
// Empty counts against a policied daemon mean the policies are working.
type AbuseStats struct {
	Profile string
	Workers int
	// Attempts counts connections opened; Accepted the login handshakes
	// answered; Refused the connections dropped without one (admission
	// rejections and resets).
	Attempts uint64
	Accepted uint64
	Refused  uint64
	// Reaped counts sockets the server closed on a silent client — the
	// slowloris defence firing.
	Reaped uint64
	// Sent and Answers count post-login messages and their answers.
	Sent    uint64
	Answers uint64
	// Empty counts throttled answers: SearchRes with no results or
	// OfferAck accepting nothing.
	Empty uint64
	// AcceptedFiles sums OfferAck.Accepted — how much forged spam
	// actually reached the index.
	AcceptedFiles uint64
	// Errors counts transport failures mid-session (resets, timeouts);
	// against a shedding daemon these are expected, not fatal.
	Errors uint64
	Wall   time.Duration
}

// An attacker's connection attempt is bounded by abuseDialTimeout and
// each answer read by abuseAnswerTimeout — generous, because a policied
// server legitimately delays throttled answers. An index-spam offer
// carries spamOfferBatch files.
const (
	abuseDialTimeout   = 5 * time.Second
	abuseAnswerTimeout = 10 * time.Second
	spamOfferBatch     = 8
)

// abuser is the shared state of one abuse run.
type abuser struct {
	cfg AbuseConfig

	attempts, accepted, refused, reaped  atomic.Uint64
	sent, answers, empty, accFiles, errs atomic.Uint64
}

// RunAbuse executes one adversarial profile until its duration (or ctx)
// expires. It returns an error only for a bad config — attack-level
// failures are what the run measures, not a reason to stop.
func RunAbuse(ctx context.Context, cfg AbuseConfig) (AbuseStats, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 16
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	var worker func(ctx context.Context, a *abuser, r *randx.Rand)
	switch cfg.Profile {
	case AbuseReconnectStorm:
		worker = reconnectStorm
	case AbuseSearchStorm:
		worker = searchStorm
	case AbuseSlowloris:
		worker = slowloris
	case AbuseIndexSpam:
		worker = indexSpam
	default:
		return AbuseStats{}, fmt.Errorf("edload: unknown abuse profile %q (have %v)",
			cfg.Profile, AbuseProfiles())
	}
	if cfg.Logf != nil {
		cfg.Logf("edload: abuse %s: %d workers against %s for %v",
			cfg.Profile, cfg.Workers, cfg.Addr, cfg.Duration)
	}

	a := &abuser{cfg: cfg}
	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	start := time.Now()
	root := randx.New(cfg.Seed, 0xAB05E)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		r := root.Split(uint64(i) + 1)
		go func(r *randx.Rand) {
			defer wg.Done()
			worker(runCtx, a, r)
		}(r)
	}
	wg.Wait()

	st := AbuseStats{
		Profile:       cfg.Profile,
		Workers:       cfg.Workers,
		Attempts:      a.attempts.Load(),
		Accepted:      a.accepted.Load(),
		Refused:       a.refused.Load(),
		Reaped:        a.reaped.Load(),
		Sent:          a.sent.Load(),
		Answers:       a.answers.Load(),
		Empty:         a.empty.Load(),
		AcceptedFiles: a.accFiles.Load(),
		Errors:        a.errs.Load(),
		Wall:          time.Since(start),
	}
	if cfg.Logf != nil {
		cfg.Logf("edload: abuse %s: %d attempts (%d accepted, %d refused, %d reaped), %d msgs (%d answered, %d empty) in %v",
			st.Profile, st.Attempts, st.Accepted, st.Refused, st.Reaped,
			st.Sent, st.Answers, st.Empty, st.Wall.Round(time.Millisecond))
	}
	return st, nil
}

// attack is one attacker's live connection.
type attack struct {
	conn net.Conn
	bw   *bufio.Writer
	sr   *ed2k.StreamReader
}

// open dials and completes the login handshake. A refusal (admission
// rejection, reset, shed) is counted and reported as !ok; transport-
// level detail is irrelevant to the attacker.
func (a *abuser) open(ctx context.Context, nick string) (*attack, bool) {
	a.attempts.Add(1)
	d := net.Dialer{Timeout: abuseDialTimeout}
	conn, err := d.DialContext(ctx, "tcp4", a.cfg.Addr)
	if err != nil {
		a.refused.Add(1)
		return nil, false
	}
	at := &attack{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 8<<10),
		sr:   ed2k.NewStreamReader(conn),
	}
	if _, err := at.roundTrip(a, &ed2k.LoginRequest{Nick: nick, Port: 4662}); err != nil {
		conn.Close()
		a.refused.Add(1)
		return nil, false
	}
	a.accepted.Add(1)
	return at, true
}

// roundTrip sends one framed message and reads one answer.
func (at *attack) roundTrip(a *abuser, m ed2k.Message) (ed2k.Message, error) {
	if _, err := at.bw.Write(ed2k.FrameTCP(m)); err != nil {
		return nil, err
	}
	if err := at.bw.Flush(); err != nil {
		return nil, err
	}
	if err := at.conn.SetReadDeadline(time.Now().Add(abuseAnswerTimeout)); err != nil {
		return nil, err
	}
	return at.sr.Next()
}

// reconnectStorm loops connect → login → hang up: the accept choke
// point sees one admission decision per iteration.
func reconnectStorm(ctx context.Context, a *abuser, r *randx.Rand) {
	for ctx.Err() == nil {
		at, ok := a.open(ctx, "storm")
		if ok {
			at.conn.Close()
		}
	}
}

// searchStorm floods SearchReq at wire speed over held-open sessions,
// reconnecting whenever the server hangs up or errors the session.
func searchStorm(ctx context.Context, a *abuser, r *randx.Rand) {
	for ctx.Err() == nil {
		at, ok := a.open(ctx, "searcher")
		if !ok {
			continue
		}
		for ctx.Err() == nil {
			q := &ed2k.SearchReq{Expr: ed2k.Keyword(fmt.Sprintf("storm%03d", r.IntN(1000)))}
			a.sent.Add(1)
			m, err := at.roundTrip(a, q)
			if err != nil {
				a.errs.Add(1)
				break
			}
			a.answers.Add(1)
			if res, ok := m.(*ed2k.SearchRes); ok && len(res.Results) == 0 {
				a.empty.Add(1)
			}
		}
		at.conn.Close()
	}
}

// slowloris opens sessions and goes silent, holding the socket until
// the server reaps it — then immediately opens the next one. Without an
// idle deadline the swarm pins one daemon goroutine and fd per worker
// forever; with one, Reaped climbs.
func slowloris(ctx context.Context, a *abuser, r *randx.Rand) {
	for ctx.Err() == nil {
		at, ok := a.open(ctx, "loris")
		if !ok {
			continue
		}
		for ctx.Err() == nil {
			// Silence. Poll the socket so a server-side close is noticed.
			at.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			_, err := at.sr.Next()
			if err == nil {
				continue // unsolicited data; keep holding
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				continue // still being tolerated
			}
			if err == io.EOF || ctx.Err() == nil {
				a.reaped.Add(1)
			}
			break
		}
		at.conn.Close()
	}
}

// indexSpam floods OfferFiles batches of forged fixed-prefix fileIDs —
// a pollution campaign. AcceptedFiles measures how much reaches the
// index; a policied daemon acks 0 once the offer bucket drains.
func indexSpam(ctx context.Context, a *abuser, r *randx.Rand) {
	for ctx.Err() == nil {
		at, ok := a.open(ctx, "polluter")
		if !ok {
			continue
		}
		for ctx.Err() == nil {
			offer := &ed2k.OfferFiles{Port: 4662, Files: forgedBatch(r, spamOfferBatch)}
			a.sent.Add(1)
			m, err := at.roundTrip(a, offer)
			if err != nil {
				a.errs.Add(1)
				break
			}
			a.answers.Add(1)
			if ack, ok := m.(*ed2k.OfferAck); ok {
				a.accFiles.Add(uint64(ack.Accepted))
				if ack.Accepted == 0 {
					a.empty.Add(1)
				}
			}
		}
		at.conn.Close()
	}
}

// forgedBatch builds one spam offer: every fileID carries ForgedPrefix,
// exactly the fixed-prefix stamping that let the paper spot pollution
// in its anonymisation buckets.
func forgedBatch(r *randx.Rand, n int) []ed2k.FileEntry {
	files := make([]ed2k.FileEntry, n)
	for i := range files {
		var fid ed2k.FileID
		fid[0], fid[1] = ForgedPrefix[0], ForgedPrefix[1]
		for j := 2; j < len(fid); j += 8 {
			v := r.Uint64()
			for k := 0; k < 8 && j+k < len(fid); k++ {
				fid[j+k] = byte(v >> (8 * k))
			}
		}
		files[i] = ed2k.FileEntry{
			ID: fid,
			Tags: []ed2k.Tag{
				ed2k.StringTag(ed2k.FTFileName, fmt.Sprintf("hot release %d.mp3", r.IntN(100000))),
				ed2k.UintTag(ed2k.FTFileSize, uint32(1+r.IntN(700))<<20),
				ed2k.StringTag(ed2k.FTFileType, "Audio"),
			},
		}
	}
	return files
}
