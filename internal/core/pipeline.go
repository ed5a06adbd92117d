// Package core implements the paper's measurement infrastructure — the
// three-step procedure of its Figure 1:
//
//  1. capture: raw ethernet frames are mirrored into a bounded kernel
//     buffer (internal/pcap), with overflow losses counted per second;
//  2. reconstruction and decoding: frames are parsed at IP level, UDP
//     datagrams reassembled from fragments, and eDonkey messages decoded
//     in two phases (structural validation, then effective decoding);
//  3. anonymisation and formatting: clientIDs and fileIDs are replaced by
//     order-of-appearance integers, strings by md5 digests, sizes
//     truncated to KB, timestamps rebased, and the result streamed to the
//     XML dataset.
//
// The same Pipeline serves every capture — the discrete-event
// simulation (SimWorld), a pcap file, a live socket — because every
// source hands it ethernet frames (edtrace.Source); ProcessFrame is its
// one entry point.
//
// The pipeline is split at the decode/anonymise boundary: a FrameDecoder
// (steps 1–2, stateful only in its fragment reassembler) and the emit
// half (step 3, whose order-of-appearance anonymisation is inherently
// sequential), so the decode half can be measured on its own.
package core

import (
	"errors"

	"edtrace/internal/anonymize"
	"edtrace/internal/ed2k"
	"edtrace/internal/netsim"
	"edtrace/internal/simtime"
	"edtrace/internal/xmlenc"
)

// RecordSink consumes anonymised records. dataset.Writer satisfies it;
// analysis collectors do too.
//
// Borrow contract: the record — and every slice inside it — is only
// valid for the duration of the Write call. The pipeline recycles one
// scratch record through all transforms, so a sink that keeps records
// (or their Files/FileRefs/Sources/Keywords slices) past its return must
// store r.Clone() instead.
type RecordSink interface {
	Write(*xmlenc.Record) error
}

// DiscardSink drops records (for capture-only benchmarks).
type DiscardSink struct{}

// Write implements RecordSink.
func (DiscardSink) Write(*xmlenc.Record) error { return nil }

// PipelineStats counts every stage's outcomes; Report.String prints its
// headline table from this struct.
type PipelineStats struct {
	Frames       uint64 // ethernet frames processed
	EthMalformed uint64 // frames that were not IPv4
	IPMalformed  uint64 // IP packets failing header checks
	UDPDatagrams uint64 // complete datagrams after reassembly
	UDPMalformed uint64 // datagrams failing UDP checks
	Fragments    uint64 // fragment packets seen
	Reassembled  uint64 // datagrams rebuilt from fragments
	EDMessages   uint64 // eDonkey messages offered to the decoder
	DecodedOK    uint64
	FailStruct   uint64 // failed structural validation
	FailSemantic uint64 // passed validation, failed decoding
	Records      uint64 // anonymised records emitted
	Queries      uint64
	Answers      uint64
}

// Add returns the field-wise sum of s and o — how a Pipeline folds its
// decoder's counters into its emit-side ones.
func (s PipelineStats) Add(o PipelineStats) PipelineStats {
	s.Frames += o.Frames
	s.EthMalformed += o.EthMalformed
	s.IPMalformed += o.IPMalformed
	s.UDPDatagrams += o.UDPDatagrams
	s.UDPMalformed += o.UDPMalformed
	s.Fragments += o.Fragments
	s.Reassembled += o.Reassembled
	s.EDMessages += o.EDMessages
	s.DecodedOK += o.DecodedOK
	s.FailStruct += o.FailStruct
	s.FailSemantic += o.FailSemantic
	s.Records += o.Records
	s.Queries += o.Queries
	s.Answers += o.Answers
	return s
}

// UndecodedRate returns the fraction of eDonkey messages not decoded —
// the paper reports 0.68 %.
func (s *PipelineStats) UndecodedRate() float64 {
	if s.EDMessages == 0 {
		return 0
	}
	return float64(s.FailStruct+s.FailSemantic) / float64(s.EDMessages)
}

// StructuralShare returns the structurally-incorrect share of decode
// failures — the paper reports 78 %.
func (s *PipelineStats) StructuralShare() float64 {
	bad := s.FailStruct + s.FailSemantic
	if bad == 0 {
		return 0
	}
	return float64(s.FailStruct) / float64(bad)
}

// Decoded is one frame's decode outcome: the dialog endpoints and the
// pooled message (obtained via ed2k.DecodePooled; ownership passes to
// whoever commits it — the pipeline's emit half releases it back to the
// pool).
type Decoded struct {
	Src, Dst uint32
	Msg      ed2k.Message
}

// FrameDecoder is the front half of the pipeline: ethernet/IP parsing,
// fragment reassembly, UDP validation and two-phase eDonkey decoding.
// It holds no anonymisation state. Not safe for concurrent use; give
// each goroutine its own.
type FrameDecoder struct {
	reasm *netsim.Reassembler
	stats PipelineStats // decode-side counters; Records/Queries/Answers stay zero
}

// NewFrameDecoder returns an empty decoder.
func NewFrameDecoder() *FrameDecoder {
	return &FrameDecoder{reasm: netsim.NewReassembler()}
}

// Stats returns a copy of the decode-side counters.
func (d *FrameDecoder) Stats() PipelineStats {
	s := d.stats
	s.Fragments = d.reasm.Fragments
	s.Reassembled = d.reasm.Reassembled
	return s
}

// ExpireReassembly ages out incomplete fragment groups.
func (d *FrameDecoder) ExpireReassembly(now simtime.Time) { d.reasm.Expire(now) }

// DecodeFrame runs one captured ethernet frame through parsing,
// reassembly and decoding. ok reports whether a message was decoded;
// malformed traffic is counted, never returned as an error. The frame
// bytes are not retained: they may be recycled as soon as DecodeFrame
// returns. The returned message is pooled — release it with
// ed2k.Release.
func (d *FrameDecoder) DecodeFrame(now simtime.Time, frame []byte) (Decoded, bool) {
	d.stats.Frames++
	ip, err := netsim.DecodeEthernet(frame)
	if err != nil {
		d.stats.EthMalformed++
		return Decoded{}, false
	}
	hdr, payload, err := netsim.DecodeIPv4(ip)
	if err != nil {
		d.stats.IPMalformed++
		return Decoded{}, false
	}
	if hdr.Protocol != netsim.ProtoUDP {
		return Decoded{}, false // the paper's analysis covers UDP only (§2.2)
	}
	dg, ok := d.reasm.Push(now, hdr, payload)
	if !ok {
		return Decoded{}, false // waiting for more fragments
	}
	_, udpPayload, err := netsim.DecodeUDP(hdr.Src, hdr.Dst, dg)
	if err != nil {
		d.stats.UDPMalformed++
		return Decoded{}, false
	}
	d.stats.UDPDatagrams++
	return d.decodeMessage(hdr.Src, hdr.Dst, udpPayload)
}

func (d *FrameDecoder) decodeMessage(src, dst uint32, raw []byte) (Decoded, bool) {
	d.stats.EDMessages++
	msg, err := ed2k.DecodePooled(raw)
	if err != nil {
		switch {
		case errors.Is(err, ed2k.ErrStructural):
			d.stats.FailStruct++
		case errors.Is(err, ed2k.ErrSemantic):
			d.stats.FailSemantic++
		default:
			d.stats.FailStruct++
		}
		return Decoded{}, false
	}
	d.stats.DecodedOK++
	return Decoded{Src: src, Dst: dst, Msg: msg}, true
}

// Pipeline decodes, anonymises and stores captured frames.
type Pipeline struct {
	// ServerIP classifies direction: traffic towards it is a query.
	ServerIP uint32

	dec     *FrameDecoder
	clients *anonymize.ClientTable
	files   *anonymize.FileBuckets
	sink    RecordSink
	stats   PipelineStats // emit-side counters (Records/Queries/Answers)
	scratch xmlenc.Record // recycled through every transform

	typeHashes map[string]string // file type → its HashString; at most maxTypeHashes
}

// NewPipeline builds a pipeline writing anonymised records to sink.
// fileBytePair selects the fileID anonymisation bucket bytes (Fig 3).
func NewPipeline(serverIP uint32, fileBytePair [2]int, sink RecordSink) *Pipeline {
	return &Pipeline{
		ServerIP: serverIP,
		dec:      NewFrameDecoder(),
		clients:  anonymize.NewClientTable(),
		files:    anonymize.NewFileBuckets(fileBytePair[0], fileBytePair[1]),
		sink:     sink,

		typeHashes: make(map[string]string),
	}
}

// Stats returns a copy of the counters: the embedded decoder's plus the
// emit side's.
func (p *Pipeline) Stats() PipelineStats {
	return p.stats.Add(p.dec.Stats())
}

// ClientAnonymizer exposes the clientID structure (for reports).
func (p *Pipeline) ClientAnonymizer() *anonymize.ClientTable { return p.clients }

// FileAnonymizer exposes the fileID buckets (for Fig 3).
func (p *Pipeline) FileAnonymizer() *anonymize.FileBuckets { return p.files }

// ExpireReassembly ages out incomplete fragment groups.
func (p *Pipeline) ExpireReassembly(now simtime.Time) { p.dec.ExpireReassembly(now) }

// ProcessFrame runs one captured ethernet frame through the full
// pipeline. Errors from the sink abort processing and are returned;
// malformed traffic is counted, not returned.
func (p *Pipeline) ProcessFrame(now simtime.Time, frame []byte) error {
	d, ok := p.dec.DecodeFrame(now, frame)
	if !ok {
		return nil
	}
	return p.emitDecoded(now, d)
}

// emitDecoded runs the anonymise/format/store back half on one decoded
// message. It takes ownership of d.Msg, releasing it to the decode pool
// before returning. Order of calls defines the anonymised ID space
// (order of appearance), so callers must commit in capture order.
func (p *Pipeline) emitDecoded(now simtime.Time, d Decoded) error {
	rec := p.transform(now, d.Src, d.Dst, d.Msg)
	ed2k.Release(d.Msg)
	if rec == nil {
		return nil
	}
	p.stats.Records++
	if rec.Dir == xmlenc.DirQuery {
		p.stats.Queries++
	} else {
		p.stats.Answers++
	}
	return p.sink.Write(rec)
}
