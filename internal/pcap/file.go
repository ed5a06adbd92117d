// Package pcap implements the capture side of the measurement: the
// classic libpcap file format for storing raw frames, and a model of the
// kernel capture buffer whose overflows are the packet losses of the
// paper's Figure 2.
//
// §2.2 of the paper: "libpcap uses a buffer where the kernel stores
// captured packets. In case of traffic peaks, this buffer may be
// unsufficient and get full of packets, while some others still arrive.
// The kernel cannot store these new packets in the buffer, and some are
// thus lost. The number of lost packets is stored in a kernel structure".
// KernelBuffer reproduces this buffer: a bounded byte budget written by
// the tap and drained by the decoder, whose overflow it counts in the
// capture's Ledger. The Ledger is that kernel structure, for every kind
// of capture: one account of the frames offered, each counted once as
// captured or dropped, in totals and in the per-second series of
// Figure 2.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"edtrace/internal/simtime"
)

// File format constants (pcap classic, microsecond resolution).
const (
	Magic        = 0xA1B2C3D4
	VersionMajor = 2
	VersionMinor = 4
	// LinkTypeEthernet is DLT_EN10MB.
	LinkTypeEthernet = 1
	fileHeaderLen    = 24
	recordHeaderLen  = 16
	// maxCapLen bounds a record's captured length, and so what Next
	// allocates for one: libpcap's MAXIMUM_SNAPLEN, which no capture
	// exceeds. It does not come from the file: a header may claim any
	// snap length.
	maxCapLen = 262144
)

// ErrBadFile is returned when a pcap file cannot be parsed.
var ErrBadFile = errors.New("pcap: bad file")

// Record is one captured frame with its capture timestamp.
type Record struct {
	// TimeSec and TimeMicro form the capture timestamp.
	TimeSec   uint32
	TimeMicro uint32
	// OrigLen is the frame's length on the wire; Data may be shorter if
	// the capture used a snap length.
	OrigLen uint32
	Data    []byte
}

// RecordAt builds a record for a frame captured at virtual time t,
// quantised to the format's microsecond resolution. RecordAt and Time
// are exact inverses (modulo that quantisation): the sim↔pcap record
// parity guarantee depends on every producer and consumer using this
// one conversion.
func RecordAt(t simtime.Time, data []byte) Record {
	return Record{
		TimeSec:   uint32(t / simtime.Second),
		TimeMicro: uint32((t % simtime.Second) / simtime.Microsecond),
		OrigLen:   uint32(len(data)),
		Data:      data,
	}
}

// Time returns the record's capture timestamp on the virtual clock.
func (r Record) Time() simtime.Time {
	return simtime.Time(r.TimeSec)*simtime.Second +
		simtime.Time(r.TimeMicro)*simtime.Microsecond
}

// Writer streams records into a pcap file.
type Writer struct {
	w       *bufio.Writer
	snapLen uint32
	wrote   uint64
}

// NewWriter writes a pcap file header to w and returns a Writer.
// snapLen 0 means "do not truncate" (recorded as 65535). A snapLen over
// maxCapLen is recorded as maxCapLen, so a Reader reads back every record
// a Writer writes.
func NewWriter(w io.Writer, snapLen uint32) (*Writer, error) {
	if snapLen == 0 {
		snapLen = 65535
	}
	snapLen = min(snapLen, maxCapLen)
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [fileHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	binary.LittleEndian.PutUint16(hdr[4:], VersionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], VersionMinor)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeEthernet)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, snapLen: snapLen}, nil
}

// Write appends one record, truncating Data to the snap length.
func (w *Writer) Write(r Record) error {
	data := r.Data
	if uint32(len(data)) > w.snapLen {
		data = data[:w.snapLen]
	}
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], r.TimeSec)
	binary.LittleEndian.PutUint32(hdr[4:], r.TimeMicro)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(data)))
	orig := r.OrigLen
	if orig == 0 {
		orig = uint32(len(r.Data))
	}
	binary.LittleEndian.PutUint32(hdr[12:], orig)
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(data); err != nil {
		return err
	}
	w.wrote++
	return nil
}

// Count reports how many records have been written.
func (w *Writer) Count() uint64 { return w.wrote }

// Flush drains buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader streams records out of a pcap file.
type Reader struct {
	r       *bufio.Reader
	snapLen uint32
	count   uint64
}

// NewReader parses the file header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFile, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != Magic {
		return nil, fmt.Errorf("%w: magic %08x", ErrBadFile, binary.LittleEndian.Uint32(hdr[0:]))
	}
	if maj := binary.LittleEndian.Uint16(hdr[4:]); maj != VersionMajor {
		return nil, fmt.Errorf("%w: version %d", ErrBadFile, maj)
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:]); lt != LinkTypeEthernet {
		return nil, fmt.Errorf("%w: linktype %d", ErrBadFile, lt)
	}
	return &Reader{r: br, snapLen: binary.LittleEndian.Uint32(hdr[16:])}, nil
}

// SnapLen returns the file's snap length.
func (r *Reader) SnapLen() uint32 { return r.snapLen }

// Next returns the next record, or io.EOF at end of file.
func (r *Reader) Next() (Record, error) {
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: truncated record header", ErrBadFile)
	}
	rec := Record{
		TimeSec:   binary.LittleEndian.Uint32(hdr[0:]),
		TimeMicro: binary.LittleEndian.Uint32(hdr[4:]),
		OrigLen:   binary.LittleEndian.Uint32(hdr[12:]),
	}
	capLen := binary.LittleEndian.Uint32(hdr[8:])
	if capLen > maxCapLen {
		return Record{}, fmt.Errorf("%w: caplen %d exceeds %d", ErrBadFile, capLen, maxCapLen)
	}
	rec.Data = make([]byte, capLen)
	if _, err := io.ReadFull(r.r, rec.Data); err != nil {
		return Record{}, fmt.Errorf("%w: truncated record body", ErrBadFile)
	}
	r.count++
	return rec, nil
}

// Count reports how many records have been read so far.
func (r *Reader) Count() uint64 { return r.count }
