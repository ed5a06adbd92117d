package core

import (
	"strings"

	"edtrace/internal/anonymize"
	"edtrace/internal/ed2k"
	"edtrace/internal/simtime"
	"edtrace/internal/xmlenc"
)

// transform applies §2.4's anonymisation to one decoded message and
// shapes it into a dataset record. The record's Client is the anonymised
// IP of the peer side of the dialog: the source for queries, the
// destination for answers. eDonkey-level clientIDs inside answers
// (sources) run through the same clientID table, so low-ID numbers and
// IPs share one consistent anonymised space, like the paper's dataset.
//
// The returned record is the pipeline's scratch: it is overwritten by
// the next transform, which is why RecordSink's borrow contract exists.
// Nothing in it aliases the message, so the message may be released the
// moment transform returns.
func (p *Pipeline) transform(now simtime.Time, src, dst uint32, msg ed2k.Message) *xmlenc.Record {
	rec := &p.scratch
	rec.Reset()
	rec.T = now.Seconds()
	rec.Op = ed2k.OpcodeName(msg.Opcode())
	if dst == p.ServerIP {
		rec.Dir = xmlenc.DirQuery
		rec.Client = p.clients.Anonymize(src)
	} else if src == p.ServerIP {
		rec.Dir = xmlenc.DirAnswer
		rec.Client = p.clients.Anonymize(dst)
	} else {
		return nil // stray traffic between third parties: not our dialog
	}

	switch m := msg.(type) {
	case *ed2k.OfferFiles:
		rec.Files = p.fileInfos(rec.Files, m.Files)
	case *ed2k.OfferAck:
		rec.Accepted = m.Accepted
	case *ed2k.SearchReq:
		p.encodeSearch(rec, m.Expr)
	case *ed2k.SearchRes:
		rec.Files = p.fileInfos(rec.Files, m.Results)
	case *ed2k.GetSources:
		for _, h := range m.Hashes {
			rec.FileRefs = append(rec.FileRefs, p.files.Anonymize(h))
		}
	case *ed2k.FoundSources:
		rec.FileRefs = append(rec.FileRefs, p.files.Anonymize(m.Hash))
		for _, s := range m.Sources {
			rec.Sources = append(rec.Sources, p.clients.Anonymize(uint32(s.ID)))
		}
	case *ed2k.StatRes:
		rec.Users = m.Users
		rec.FilesCount = m.Files
	case *ed2k.ServerList:
		rec.Accepted = uint32(len(m.Servers)) // addresses withheld
	case *ed2k.ServerDescRes:
		rec.Keywords = append(rec.Keywords,
			anonymize.HashString(m.Name),
			anonymize.HashString(m.Desc))
	case *ed2k.StatReq, ed2k.GetServerList, ed2k.ServerDescReq:
		// Header-only records.
	}
	return rec
}

// fileInfos anonymises a batch of file entries into dst (the scratch
// record's recycled Files slice).
func (p *Pipeline) fileInfos(dst []xmlenc.FileInfo, entries []ed2k.FileEntry) []xmlenc.FileInfo {
	for i := range entries {
		e := &entries[i]
		fi := xmlenc.FileInfo{ID: p.files.Anonymize(e.ID)}
		if name, ok := e.Name(); ok {
			fi.NameHash = anonymize.HashString(name)
		}
		if size, ok := e.Size(); ok {
			fi.SizeKB = anonymize.SizeToKB(uint64(size))
		}
		if typ, ok := e.Type(); ok {
			fi.TypeHash = p.typeHash(typ)
		}
		dst = append(dst, fi)
	}
	return dst
}

// maxTypeHashes bounds Pipeline.typeHashes. Honest clients name a
// handful of file types ("Audio", "Video", "Pro", "Doc", "Image", …), so
// the memo stays far from full, and a client inventing types cannot grow
// it: past the bound a new type is hashed on every occurrence, as all
// were before there was a memo.
const maxTypeHashes = 64

// typeHash is anonymize.HashString for file types, which repeat on
// every entry of every offer and search result.
func (p *Pipeline) typeHash(typ string) string {
	if h, ok := p.typeHashes[typ]; ok {
		return h
	}
	h := anonymize.HashString(typ)
	if len(p.typeHashes) < maxTypeHashes {
		// typ is a substring of its message's one string of values: the
		// memo keeps a copy, not the message's strings.
		p.typeHashes[strings.Clone(typ)] = h
	}
	return h
}

// encodeSearch hashes every keyword and keeps size constraints (in KB).
func (p *Pipeline) encodeSearch(rec *xmlenc.Record, e *ed2k.SearchExpr) {
	for _, kw := range e.Keywords(nil) {
		rec.Keywords = append(rec.Keywords, anonymize.HashString(kw))
	}
	var walk func(*ed2k.SearchExpr)
	walk = func(n *ed2k.SearchExpr) {
		if n == nil {
			return
		}
		switch n.Kind {
		case ed2k.KindMetaNum:
			if n.Meta == ed2k.MetaNameSize {
				kb := anonymize.SizeToKB(uint64(n.Value))
				if n.NumOp == ed2k.NumericMax {
					rec.MaxKB = kb
				} else {
					rec.MinKB = kb
				}
			}
		case ed2k.KindAnd, ed2k.KindOr, ed2k.KindNot:
			walk(n.Left)
			walk(n.Right)
		}
	}
	walk(e)
}
