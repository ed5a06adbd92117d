package main

import (
	"fmt"

	"edtrace/internal/clients"
	"edtrace/internal/ed2k"
	"edtrace/internal/randx"
	"edtrace/internal/server"
	"edtrace/internal/workload"
)

type reqKind uint8

const (
	kindGetSources reqKind = iota
	kindSearch
	kindOffer
	kindStat
	numKinds
)

var kindNames = [numKinds]string{"getsources", "search", "offer", "stat"}

// request is one query of the generator's pool together with what a
// correct server must answer, worked out in set-up against a reference
// index (a single-shard server.Server fed the same offers in the same
// order as the daemon).
type request struct {
	kind  reqKind
	msg   ed2k.Message
	frame []byte // ed2k.FrameTCP(msg), written to the socket as is

	// answers is how many messages come back. GetSources is trimmed to
	// hashes the preload offered, so the count is known in advance: one
	// FoundSources per hash, in hash order.
	answers int
	// want is the count inside the answer: SearchRes results, OfferAck
	// accepted files, StatRes indexed files.
	want uint32
	// ref is the reference index's answer; reply is ref framed: what the
	// bare echo server sends back, so the echo run moves the same bytes
	// in both directions as the daemon run.
	ref   []ed2k.Message
	reply []byte
}

// preloadClient is one population member announcing its shared folder
// in set-up.
type preloadClient struct {
	id     ed2k.ClientID
	offers []*ed2k.OfferFiles
}

// serveInputs is everything the serve workloads derive from the seed.
// The daemon under test receives only the bytes of preload and pool.
type serveInputs struct {
	preload []preloadClient
	pool    []request
	files   uint32         // files the preload indexes
	ref     *server.Server // the reference index, also the Handle rung's target
	offered int            // OfferFiles messages in preload
	perKind [numKinds]int  // pool slots by kind
}

// preloadPort is the port every preload client logs in with; the daemon
// and the reference index must agree on it for FoundSources to match.
const preloadPort = 4662

func buildServeInputs(seed uint64, sz sizes) (*serveInputs, error) {
	wl := workload.DefaultConfig()
	wl.Seed = seed
	wl.NumFiles = sz.CatalogFiles
	wl.NumClients = sz.CatalogClients
	wl.VocabWords = sz.VocabWords
	cat, err := workload.Generate(wl)
	if err != nil {
		return nil, err
	}
	pop, err := workload.GeneratePopulation(wl, cat)
	if err != nil {
		return nil, err
	}
	planner := clients.NewPlanner(cat, clients.DefaultTraffic())
	root := randx.New(seed, 0xBE7C4)

	in := &serveInputs{ref: server.New("bench-ref", "reference index")}
	var asks []*ed2k.GetSources
	var searches []*ed2k.SearchReq
	var offers []*ed2k.OfferFiles
	for i := range pop.Clients {
		c := &pop.Clients[i]
		id := ed2k.ClientID(c.IP)
		if c.LowID {
			id = ed2k.ClientID(c.IP % ed2k.LowIDThreshold)
		}
		if id == 0 {
			id = 1 // 0 asks the daemon to assign an ID; keep the planned one
		}
		pc := preloadClient{id: id}
		for _, m := range planner.Messages(c, root.Split(uint64(i)+1), sz.MaxPlan) {
			switch m := m.(type) {
			case *ed2k.OfferFiles:
				pc.offers = append(pc.offers, m)
				in.ref.Handle(0, id, preloadPort, m)
			case *ed2k.GetSources:
				asks = append(asks, m)
			case *ed2k.SearchReq:
				searches = append(searches, m)
			}
		}
		if len(pc.offers) > 0 {
			in.preload = append(in.preload, pc)
			in.offered += len(pc.offers)
			offers = append(offers, pc.offers...)
		}
	}
	_, files := in.ref.Counts()
	in.files = uint32(files)

	// Trim every GetSources to the hashes the reference index answers;
	// unknown hashes are silently unanswered by design (server.go), which
	// would leave the generator nothing to time or verify.
	const probe = ed2k.ClientID(0x0A0A0A0A)
	known := asks[:0]
	for _, q := range asks {
		kept := &ed2k.GetSources{}
		for _, a := range in.ref.Handle(0, probe, preloadPort, q) {
			kept.Hashes = append(kept.Hashes, a.(*ed2k.FoundSources).Hash)
		}
		if len(kept.Hashes) > 0 {
			known = append(known, kept)
		}
	}
	asks = known
	if len(asks) == 0 || len(searches) == 0 || len(offers) == 0 {
		return nil, fmt.Errorf("bench: population too small: %d asks, %d searches, %d offers",
			len(asks), len(searches), len(offers))
	}

	// The pool: a seeded shuffle of the four kinds in the configured
	// proportion, each slot taking the next unused query of its kind.
	r := root.Split(0xF001)
	kinds := make([]reqKind, 0, 100)
	for k, n := range [numKinds]int{sz.MixGetSources, sz.MixSearch, sz.MixOffer, sz.MixStat} {
		for i := 0; i < n; i++ {
			kinds = append(kinds, reqKind(k))
		}
	}
	var next [numKinds]int
	in.pool = make([]request, sz.PoolRequests)
	for i := range in.pool {
		q := &in.pool[i]
		q.kind = kinds[r.IntN(len(kinds))]
		n := next[q.kind]
		next[q.kind]++
		in.perKind[q.kind]++
		var refAnswers []ed2k.Message
		switch q.kind {
		case kindGetSources:
			m := asks[n%len(asks)]
			q.msg, q.answers = m, len(m.Hashes)
			refAnswers = in.ref.Handle(0, probe, preloadPort, m)
		case kindSearch:
			m := searches[n%len(searches)]
			refAnswers = in.ref.Handle(0, probe, preloadPort, m)
			q.msg, q.answers = m, 1
			q.want = uint32(len(refAnswers[0].(*ed2k.SearchRes).Results))
		case kindOffer:
			// A re-announcement of files the preload already indexed: the
			// index gains a source, never a file, so every other
			// request's reference answer stays valid for the whole run.
			m := offers[n%len(offers)]
			q.msg, q.answers, q.want = m, 1, uint32(len(m.Files))
			refAnswers = []ed2k.Message{&ed2k.OfferAck{Accepted: q.want}}
		case kindStat:
			m := &ed2k.StatReq{Challenge: 0xBE000000 | uint32(i)}
			q.msg, q.answers, q.want = m, 1, in.files
			refAnswers = []ed2k.Message{&ed2k.StatRes{Challenge: m.Challenge, Files: in.files}}
		}
		if len(refAnswers) != q.answers {
			return nil, fmt.Errorf("bench: reference index gave %d answers to pool slot %d (%s), want %d",
				len(refAnswers), i, kindNames[q.kind], q.answers)
		}
		q.frame, q.ref = ed2k.FrameTCP(q.msg), refAnswers
		for _, a := range refAnswers {
			q.reply = append(q.reply, ed2k.FrameTCP(a)...)
		}
	}
	return in, nil
}

// check verifies the j-th answer to q: opcode, order and the count the
// reference index predicted.
func (q *request) check(j int, m ed2k.Message) bool {
	switch q.kind {
	case kindGetSources:
		a, ok := m.(*ed2k.FoundSources)
		return ok && a.Hash == q.msg.(*ed2k.GetSources).Hashes[j] && len(a.Sources) > 0
	case kindSearch:
		a, ok := m.(*ed2k.SearchRes)
		return ok && uint32(len(a.Results)) == q.want
	case kindOffer:
		a, ok := m.(*ed2k.OfferAck)
		return ok && a.Accepted == q.want
	case kindStat:
		a, ok := m.(*ed2k.StatRes)
		return ok && a.Challenge == q.msg.(*ed2k.StatReq).Challenge && a.Files == q.want
	}
	return false
}
