// Command edprobe performs the active measurements the paper's
// conclusion proposes as complementary future work ("active measurements
// from clients, for instance"): it periodically probes a live eDonkey
// server over UDP — a status ping and a sample search each round — and
// prints a time series of the server's counters and responsiveness.
//
// Usage:
//
//	edprobe -server 127.0.0.1:4665 -every 2s -count 10
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"edtrace/internal/ed2k"
)

func main() {
	var (
		serverAddr = flag.String("server", "127.0.0.1:4665", "server UDP address")
		every      = flag.Duration("every", 2*time.Second, "probe interval")
		count      = flag.Int("count", 10, "number of probe rounds (0 = forever)")
		keyword    = flag.String("keyword", "mozart", "sample search keyword")
		timeout    = flag.Duration("timeout", time.Second, "per-answer timeout")
	)
	flag.Parse()

	addr, err := net.ResolveUDPAddr("udp4", *serverAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edprobe:", err)
		os.Exit(1)
	}
	conn, err := net.DialUDP("udp4", nil, addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edprobe:", err)
		os.Exit(1)
	}
	defer conn.Close()

	fmt.Printf("probing %s every %v\n", addr, *every)
	fmt.Printf("%-10s %-10s %-10s %-10s %-10s %-8s\n",
		"round", "users", "files", "rtt", "results", "alive")
	p := prober{conn: conn, keyword: *keyword, timeout: *timeout, buf: make([]byte, 64<<10)}
	for round := 1; *count == 0 || round <= *count; round++ {
		r := p.round(uint32(round))
		fmt.Printf("%-10d %-10d %-10d %-10s %-10d %-8v\n",
			round, r.users, r.files, r.rtt.Round(time.Microsecond), r.results, r.alive)
		if *count == 0 || round < *count {
			time.Sleep(*every)
		}
	}
}

// prober asks one server over conn, one datagram exchange at a time.
type prober struct {
	conn    net.Conn
	keyword string
	timeout time.Duration
	buf     []byte
}

// roundResult is one row of the time series.
type roundResult struct {
	// alive is set when the status answer echoed the round's challenge;
	// users, files and rtt come from that answer.
	alive        bool
	users, files uint32
	rtt          time.Duration
	// results counts the sample search's hits (-1: no search answer).
	results int
}

// round runs one probe: a status ping carrying challenge, then the
// sample search.
func (p *prober) round(challenge uint32) roundResult {
	r := roundResult{results: -1}
	if ans, d, err := p.exchange(&ed2k.StatReq{Challenge: challenge}); err == nil {
		sr := ans.(*ed2k.StatRes)
		r.alive, r.users, r.files, r.rtt = true, sr.Users, sr.Files, d
	}
	if ans, _, err := p.exchange(&ed2k.SearchReq{Expr: ed2k.Keyword(p.keyword)}); err == nil {
		r.results = len(ans.(*ed2k.SearchRes).Results)
	}
	return r
}

// exchange sends m and returns the first datagram back within the
// timeout that answers it. Anything else is discarded: a late answer to
// an earlier round's request must not pass for this one's.
func (p *prober) exchange(m ed2k.Message) (ed2k.Message, time.Duration, error) {
	start := time.Now()
	if _, err := p.conn.Write(ed2k.Encode(m)); err != nil {
		return nil, 0, err
	}
	p.conn.SetReadDeadline(start.Add(p.timeout))
	for {
		n, err := p.conn.Read(p.buf)
		if err != nil {
			return nil, time.Since(start), err
		}
		if ans, err := ed2k.Decode(p.buf[:n]); err == nil && answers(m, ans) {
			return ans, time.Since(start), nil
		}
	}
}

// answers reports whether ans answers req: a status answer must echo
// the ping's challenge, and a search needs a search answer.
func answers(req, ans ed2k.Message) bool {
	switch q := req.(type) {
	case *ed2k.StatReq:
		sr, ok := ans.(*ed2k.StatRes)
		return ok && sr.Challenge == q.Challenge
	case *ed2k.SearchReq:
		_, ok := ans.(*ed2k.SearchRes)
		return ok
	}
	return false
}
