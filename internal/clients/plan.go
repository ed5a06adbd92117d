package clients

import (
	"slices"

	"edtrace/internal/ed2k"
	"edtrace/internal/randx"
	"edtrace/internal/workload"
)

// Planner materialises one client's behavioural plan as an ordered ed2k
// message list — the same traffic mix the Swarm schedules on the virtual
// clock, but without the clock, for load generators (cmd/edload) that
// replay it over real TCP connections as fast as the server accepts it.
//
// A Planner is immutable and safe for concurrent Messages calls; all
// randomness comes from the caller-supplied per-client Rand.
type Planner struct {
	cat *workload.Catalog
	tc  TrafficConfig
}

// NewPlanner wires a planner over the catalog with the given traffic
// shaping (OfferBatch is used; the time-domain fields are ignored).
func NewPlanner(cat *workload.Catalog, tc TrafficConfig) *Planner {
	return &Planner{cat: cat, tc: tc}
}

// Messages builds the ordered message list for one client: the shared
// folder announced first (in OfferBatch-sized batches, like a session
// start), then source asks and keyword searches interleaved. maxMsgs
// bounds the list (<= 0 means unbounded) so heavy profiles — a scanner's
// ask plan can run to six figures — stay affordable in a load test.
func (p *Planner) Messages(c *workload.Client, r *randx.Rand, maxMsgs int) []ed2k.Message {
	var out []ed2k.Message
	room := func() bool { return maxMsgs <= 0 || len(out) < maxMsgs }

	// Announcements: the shared folder in batches.
	for off := 0; off < len(c.Shares) && room(); {
		batch := min(p.tc.OfferBatch, len(c.Shares)-off)
		out = append(out, offerMessage(p.cat, c, c.Shares[off:off+batch]))
		off += batch
	}

	pending := askList(p.cat, c, r)

	// Interleave ask batches and searches in ask:search proportion.
	zipf := randx.NewZipf(r.Split(99), 1.4, 2, uint64(len(p.cat.Vocab())-1))
	searches := c.SearchCount
	for (len(pending) > 0 || searches > 0) && room() {
		if len(pending) > 0 && (searches == 0 || !r.Bool(0.2)) {
			batch := min(1+r.IntN(asksPerMessage), len(pending))
			out = append(out, askMessage(p.cat, r, pending[:batch]))
			pending = pending[batch:]
		} else {
			out = append(out, &ed2k.SearchReq{Expr: randomSearchExpr(p.cat, zipf, r)})
			searches--
		}
	}
	return out
}

// SessionMessages builds the message plan for one churn-engine session.
// It is Messages plus flash-crowd steering: when crowd is non-empty —
// the fileIDs of a fresh content release — the session asks for a
// sample of them right after announcing its shares, before settling
// into its normal mix. That ordering is the paper's flash-crowd
// signature: demand for a release outruns its supply because crowd
// sessions front-load their asks on it.
func (p *Planner) SessionMessages(c *workload.Client, r *randx.Rand, maxMsgs int, crowd []ed2k.FileID) []ed2k.Message {
	if len(crowd) == 0 {
		return p.Messages(c, r, maxMsgs)
	}
	ask, _ := crowdAsk(r, crowd, nil)
	budget := maxMsgs
	if budget > 0 {
		budget--
	}
	rest := p.Messages(c, r, budget)
	// Insert after the announcement prefix (session start comes first).
	i := 0
	for i < len(rest) {
		if _, ok := rest[i].(*ed2k.OfferFiles); !ok {
			break
		}
		i++
	}
	out := make([]ed2k.Message, 0, len(rest)+1)
	out = append(out, rest[:i]...)
	out = append(out, ask)
	out = append(out, rest[i:]...)
	return out
}

// crowdAsk is a flash-crowd session's first ask: a sample of up to
// asksPerMessage of a fresh release's fileIDs, the head of a permutation
// of them drawn into perm's storage. It returns the permutation too, for
// a caller that reuses it as the next perm.
func crowdAsk(r *randx.Rand, crowd []ed2k.FileID, perm []int) (*ed2k.GetSources, []int) {
	k := min(1+r.IntN(asksPerMessage), len(crowd))
	ask := &ed2k.GetSources{}
	perm = r.PermInto(perm, len(crowd))
	for _, i := range perm[:k] {
		ask.Hashes = append(ask.Hashes, crowd[i])
	}
	return ask, perm
}

// askList materialises a client's distinct ask list up front: Fig 7
// counts distinct files asked per client, and the 52-query software cap
// must stay a sharp spike, so asks sample without replacement. The
// sentinel -1 marks a scanner probe of an unindexed fileID, which
// happens at scannerUnknownShare of a scanner's asks (askMessage
// generates it; random 128-bit values are distinct by construction).
func askList(cat *workload.Catalog, c *workload.Client, r *randx.Rand) []int32 {
	list := make([]int32, 0, c.AskCount)
	scanner := c.Profile == workload.Scanner
	seen := make(map[int32]struct{}, c.AskCount)
	for tries := 0; len(list) < c.AskCount && tries < c.AskCount*4; tries++ {
		if scanner && r.Bool(scannerUnknownShare) {
			list = append(list, -1)
			continue
		}
		f := int32(cat.SampleAsk(r))
		if _, dup := seen[f]; dup {
			continue
		}
		seen[f] = struct{}{}
		list = append(list, f)
	}
	return list
}

// askMessage builds the GetSources query for one group of an ask list.
func askMessage(cat *workload.Catalog, r *randx.Rand, group []int32) *ed2k.GetSources {
	msg := &ed2k.GetSources{}
	fillAsk(msg, cat, r, group)
	return msg
}

// fillAsk makes msg the GetSources query for group, reusing its slice.
func fillAsk(msg *ed2k.GetSources, cat *workload.Catalog, r *randx.Rand, group []int32) {
	msg.Hashes = msg.Hashes[:0]
	for _, f := range group {
		if f < 0 {
			msg.Hashes = append(msg.Hashes, randomFileID(r))
		} else {
			msg.Hashes = append(msg.Hashes, cat.Files[f].ID)
		}
	}
}

// offerMessage builds the OfferFiles announcing shares, a run of the
// client's shared folder (catalog indices).
func offerMessage(cat *workload.Catalog, c *workload.Client, shares []int32) *ed2k.OfferFiles {
	msg := &ed2k.OfferFiles{}
	fillOffer(msg, cat, c, shares)
	return msg
}

// fillOffer makes msg the OfferFiles announcing shares. It reuses msg's
// entries and their tags, so filling a message again allocates nothing
// once it has held as many files.
func fillOffer(msg *ed2k.OfferFiles, cat *workload.Catalog, c *workload.Client, shares []int32) {
	id := edID(c)
	msg.Client, msg.Port = id, 4662
	msg.Files = slices.Grow(msg.Files[:0], len(shares))[:len(shares)]
	for i, fi := range shares {
		f, e := &cat.Files[fi], &msg.Files[i]
		e.ID, e.Client, e.Port = f.ID, id, 4662
		if len(e.Tags) != 3 {
			e.Tags = []ed2k.Tag{
				ed2k.StringTag(ed2k.FTFileName, ""),
				ed2k.UintTag(ed2k.FTFileSize, 0),
				ed2k.StringTag(ed2k.FTFileType, ""),
			}
		}
		e.Tags[0].Str, e.Tags[1].Num, e.Tags[2].Str = f.Name, f.Size, f.Type
	}
}

// edID is the ed2k-level clientID: the IP for reachable clients, a
// server-assigned number below 2^24 otherwise.
func edID(c *workload.Client) ed2k.ClientID {
	if c.LowID {
		return ed2k.ClientID(c.IP % ed2k.LowIDThreshold)
	}
	return ed2k.ClientID(c.IP)
}

// randomSearchExpr draws one keyword search from the catalog vocabulary
// with Zipf-popular words, optionally constrained by size or type — the
// query mix §3 analyses.
func randomSearchExpr(cat *workload.Catalog, zipf *randx.Zipf, r *randx.Rand) *ed2k.SearchExpr {
	vocab := cat.Vocab()
	expr := ed2k.Keyword(vocab[int(zipf.Uint64())%len(vocab)])
	words := r.IntN(3)
	for i := 0; i < words; i++ {
		expr = ed2k.And(expr, ed2k.Keyword(vocab[int(zipf.Uint64())%len(vocab)]))
	}
	if r.Bool(0.2) {
		expr = ed2k.And(expr, ed2k.SizeAtLeast(uint32(1+r.IntN(600))<<20))
	}
	if r.Bool(0.1) {
		expr = ed2k.And(expr, ed2k.TypeIs("Audio"))
	}
	return expr
}
