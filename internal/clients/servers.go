package clients

// This file is the dynamic server list every real eDonkey client
// carries (server.met and the ED2KServerManager of the era's clients).
// A client holds several known servers, connects to the best live one,
// and on a connect or answer failure marks it down and reconnects
// elsewhere — which is exactly what edload's failover loop needs.

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// serverState is the mutable book-keeping for one known server.
type serverState struct {
	addr      string
	fails     int       // consecutive failures
	deadUntil time.Time // zero when alive
}

// ServerManager is a concurrency-safe dynamic server list. Pick returns
// the preferred live server; Report* feed outcomes back so the
// preference order adapts during a run.
type ServerManager struct {
	mu      sync.Mutex
	servers []*serverState
	byAddr  map[string]*serverState
	rr      int
}

// failLimit consecutive failures mark a server dead for deadFor.
const (
	failLimit = 3
	deadFor   = 30 * time.Second
)

// NewServerManager builds a list from TCP addresses. All servers start
// at equal priority — like a fresh server.met — so Pick's round-robin
// spreads a swarm of clients across them.
func NewServerManager(addrs ...string) (*ServerManager, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("clients: empty server list")
	}
	m := &ServerManager{byAddr: make(map[string]*serverState, len(addrs))}
	for i, a := range addrs {
		if a == "" {
			return nil, fmt.Errorf("clients: empty server address at %d", i)
		}
		if m.byAddr[a] != nil {
			continue
		}
		s := &serverState{addr: a}
		m.servers = append(m.servers, s)
		m.byAddr[a] = s
	}
	return m, nil
}

// Len returns the number of distinct servers on the list.
func (m *ServerManager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.servers)
}

// Pick returns the preferred server address: the live server with the
// fewest consecutive failures, round-robining across ties
// so a swarm of clients spreads over equally-good servers. The avoid
// address (typically the one that just failed) is skipped when any
// alternative exists. When every server is dead the least-recently
// condemned one is revived — a client with a server list never simply
// gives up, it retries the best bad option.
func (m *ServerManager) Pick(avoid string) string {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()

	var cands []*serverState
	for _, s := range m.servers {
		if !s.deadUntil.IsZero() && now.Before(s.deadUntil) {
			continue
		}
		if s.addr == avoid && len(m.servers) > 1 {
			continue
		}
		cands = append(cands, s)
	}
	if len(cands) == 0 {
		// All dead: revive the one whose sentence expires first.
		best := m.servers[0]
		for _, s := range m.servers[1:] {
			if s.addr == avoid && len(m.servers) > 1 {
				continue
			}
			if best.addr == avoid || s.deadUntil.Before(best.deadUntil) {
				best = s
			}
		}
		best.deadUntil = time.Time{}
		best.fails = 0
		return best.addr
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].fails < cands[j].fails })
	// Round-robin across the servers tied with the best.
	tied := 1
	for tied < len(cands) && cands[tied].fails == cands[0].fails {
		tied++
	}
	s := cands[m.rr%tied]
	m.rr++
	return s.addr
}

// ReportSuccess records a successful answer round-trip: it clears the
// consecutive-failure count and revives a dead server.
func (m *ServerManager) ReportSuccess(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.byAddr[addr]
	if s == nil {
		return
	}
	s.fails = 0
	s.deadUntil = time.Time{}
}

// ReportFailure records a connect or answer failure; at the fail limit
// the server is marked dead for the configured backoff.
func (m *ServerManager) ReportFailure(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.byAddr[addr]
	if s == nil {
		return
	}
	s.fails++
	if s.fails >= failLimit {
		s.deadUntil = time.Now().Add(deadFor)
	}
}
