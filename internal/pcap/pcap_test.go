package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"edtrace/internal/simtime"
)

func TestFileRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{TimeSec: 1, TimeMicro: 500000, Data: []byte("frame one")},
		{TimeSec: 2, TimeMicro: 0, Data: []byte("frame two, longer")},
		{TimeSec: 2, TimeMicro: 999999, Data: []byte{}},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Fatalf("writer count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.TimeSec != want.TimeSec || got.TimeMicro != want.TimeMicro {
			t.Fatalf("record %d time: %+v", i, got)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("record %d data mismatch", i)
		}
		if got.OrigLen != uint32(len(want.Data)) {
			t.Fatalf("record %d origlen = %d", i, got.OrigLen)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if r.Count() != 3 {
		t.Fatalf("reader count = %d", r.Count())
	}
}

func TestSnapLenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 8)
	long := bytes.Repeat([]byte{0xAB}, 100)
	if err := w.Write(Record{Data: long}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, _ := NewReader(&buf)
	if r.SnapLen() != 8 {
		t.Fatalf("snaplen = %d", r.SnapLen())
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 8 {
		t.Fatalf("caplen = %d, want 8", len(rec.Data))
	}
	if rec.OrigLen != 100 {
		t.Fatalf("origlen = %d, want 100", rec.OrigLen)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},
		[]byte("not a pcap file at all, definitely"),
		bytes.Repeat([]byte{0}, 24),
	}
	for i, c := range cases {
		if _, err := NewReader(bytes.NewReader(c)); !errors.Is(err, ErrBadFile) {
			t.Errorf("case %d: err = %v, want ErrBadFile", i, err)
		}
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	w.Write(Record{Data: []byte("abcdef")})
	w.Flush()
	data := buf.Bytes()
	r, _ := NewReader(bytes.NewReader(data[:len(data)-3]))
	if _, err := r.Next(); !errors.Is(err, ErrBadFile) {
		t.Fatalf("truncated body: %v", err)
	}
}

// pcapFile is a file header with the given snap length followed by rest.
func pcapFile(snapLen uint32, rest []byte) []byte {
	hdr := make([]byte, fileHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	binary.LittleEndian.PutUint16(hdr[4:], VersionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], VersionMinor)
	binary.LittleEndian.PutUint32(hdr[16:], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeEthernet)
	return append(hdr, rest...)
}

// readAll reads every record of a file and returns how many it read, the
// bytes allocated meanwhile and the error that ended the records (nil at
// the end of the file).
func readAll(file []byte) (n int, alloc uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := NewReader(bytes.NewReader(file))
	for err == nil {
		if _, err = r.Next(); err == nil {
			n++
		}
	}
	runtime.ReadMemStats(&after)
	if err == io.EOF {
		err = nil
	}
	return n, after.TotalAlloc - before.TotalAlloc, err
}

// TestReaderBoundsCapLen: what a record may make Next allocate does not
// depend on the file's header. A 40-byte file claiming a snap length of
// 0xFFFFEFFF and a record of 0xC0000000 bytes made the reader allocate 3 GB
// before it found the body missing.
func TestReaderBoundsCapLen(t *testing.T) {
	rec := make([]byte, recordHeaderLen)
	binary.LittleEndian.PutUint32(rec[8:], 0xC0000000)
	file := pcapFile(0xFFFFEFFF, rec)
	if len(file) != 40 {
		t.Fatalf("file is %d bytes", len(file))
	}
	n, alloc, err := readAll(file)
	if n != 0 || !errors.Is(err, ErrBadFile) {
		t.Fatalf("read %d records, err = %v; want none and ErrBadFile", n, err)
	}
	if alloc > 1<<20 {
		t.Fatalf("a 40-byte file cost %d bytes of allocation", alloc)
	}
}

// TestReaderHugeSnapLen: a snap length near 2³² is only a claim — the
// reader used to add 4096 to it, wrapped around to 0 and rejected every
// record.
func TestReaderHugeSnapLen(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	w.Write(Record{TimeSec: 7, Data: bytes.Repeat([]byte{0xAB}, 60)})
	w.Flush()
	file := pcapFile(0xFFFFF000, buf.Bytes()[fileHeaderLen:])
	if n, _, err := readAll(file); n != 1 || err != nil {
		t.Fatalf("read %d records, err = %v; want 1 and no error", n, err)
	}
}

// TestWriterClampsSnapLen: a Writer asked for a snap length the Reader
// does not take writes no record the Reader rejects.
func TestWriterClampsSnapLen(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1<<20)
	frame := bytes.Repeat([]byte{0xCD}, maxCapLen+100)
	w.Write(Record{TimeSec: 1, Data: frame})
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil || !bytes.Equal(rec.Data, frame[:maxCapLen]) || rec.OrigLen != uint32(len(frame)) {
		t.Fatalf("read %d bytes of %d, err = %v; want the first %d", len(rec.Data), rec.OrigLen, err, maxCapLen)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("second Next: %v, want io.EOF", err)
	}
}

// FuzzPcapReader: NewReader and Next over any bytes return records or an
// error, never panic, and allocate no more than 1 MiB — the read buffer
// and one record of the largest captured length — plus twice the input.
//
//	go test -run '^$' -fuzz '^FuzzPcapReader$' -fuzztime 15s ./internal/pcap/
func FuzzPcapReader(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	for i, n := range []int{0, 1, 60, 1514} {
		w.Write(Record{TimeSec: uint32(i), TimeMicro: 999999, Data: bytes.Repeat([]byte{byte(i)}, n)})
	}
	w.Flush()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())-3])
	rec := make([]byte, recordHeaderLen)
	binary.LittleEndian.PutUint32(rec[8:], 0xC0000000)
	f.Add(pcapFile(0xFFFFEFFF, rec))
	binary.LittleEndian.PutUint32(rec[8:], maxCapLen)
	f.Add(pcapFile(0, rec))
	f.Add(pcapFile(0xFFFFF000, buf.Bytes()[fileHeaderLen:]))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, file []byte) {
		if _, alloc, _ := readAll(file); alloc > 1<<20+2*uint64(len(file)) {
			t.Fatalf("a %d-byte file cost %d bytes of allocation", len(file), alloc)
		}
	})
}

func TestQuickFileRoundtrip(t *testing.T) {
	f := func(frames [][]byte) bool {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, 0)
		for i, fr := range frames {
			if err := w.Write(Record{TimeSec: uint32(i), Data: fr}); err != nil {
				return false
			}
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, fr := range frames {
			rec, err := r.Next()
			if err != nil || !bytes.Equal(rec.Data, fr) {
				return false
			}
		}
		_, err = r.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKernelBufferDropsWhenFull(t *testing.T) {
	var l Ledger
	k := NewKernelBuffer(100, &l)
	frame := bytes.Repeat([]byte{1}, 40)
	if !k.Produce(0, frame) || !k.Produce(0, frame) {
		t.Fatal("first two frames must fit")
	}
	if k.Produce(0, frame) {
		t.Fatal("third frame must overflow (120 > 100)")
	}
	if l.Dropped(QueueFull) != 1 || l.Captured() != 0 {
		t.Fatalf("ledger: dropped=%d captured=%d, want 1 and 0 (the consumer counts what it takes)",
			l.Dropped(QueueFull), l.Captured())
	}
	// Draining frees budget.
	got := k.Consume(1)
	if len(got) != 1 {
		t.Fatalf("consumed %d", len(got))
	}
	if !k.Produce(0, frame) {
		t.Fatal("frame must fit after drain")
	}
}

func TestKernelBufferFIFOAndTimestamps(t *testing.T) {
	k := NewKernelBuffer(1<<20, nil)
	k.Produce(1500*simtime.Millisecond, []byte("a"))
	k.Produce(2*simtime.Second, []byte("b"))
	recs := k.Consume(0)
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if string(recs[0].Data) != "a" || string(recs[1].Data) != "b" {
		t.Fatal("not FIFO")
	}
	if recs[0].TimeSec != 1 || recs[0].TimeMicro != 500000 {
		t.Fatalf("timestamp: %+v", recs[0])
	}
}

// TestKernelBufferPerSecondSeries: the buffer's drops and the frames its
// consumer takes land in one ledger, each in its own virtual second.
func TestKernelBufferPerSecondSeries(t *testing.T) {
	var l Ledger
	k := NewKernelBuffer(50, &l)
	drain := func() {
		for _, r := range k.Consume(0) {
			l.Capture(int(r.Time() / simtime.Second))
		}
	}
	big := bytes.Repeat([]byte{1}, 30)
	// Second 0: one stored, one dropped.
	k.Produce(100*simtime.Millisecond, big)
	k.Produce(200*simtime.Millisecond, big)
	// Second 2: drain then store.
	drain()
	k.Produce(2*simtime.Second+simtime.Millisecond, big)
	drain()
	s, captured, dropped := l.Account()
	if captured != 2 || dropped != 1 {
		t.Fatalf("totals: captured %d dropped %d, want 2 and 1", captured, dropped)
	}
	if len(s) != 3 {
		t.Fatalf("series length %d, want 3", len(s))
	}
	if s[0].Captured != 1 || s[0].Dropped != 1 {
		t.Fatalf("second 0: %+v", s[0])
	}
	if s[1].Captured != 0 || s[1].Dropped != 0 {
		t.Fatalf("second 1: %+v", s[1])
	}
	if s[2].Captured != 1 {
		t.Fatalf("second 2: %+v", s[2])
	}
}

func TestKernelBufferConsumeLimit(t *testing.T) {
	const budget = 1 << 20
	k := NewKernelBuffer(budget, nil)
	for i := 0; i < 10; i++ {
		k.Produce(0, []byte{byte(i)})
	}
	if got := k.Consume(3); len(got) != 3 {
		t.Fatalf("Consume(3) returned %d", len(got))
	}
	if got := k.Consume(0); len(got) != 7 {
		t.Fatalf("Consume(0) returned %d", len(got))
	}
	if k.Consume(5) != nil {
		t.Fatal("empty buffer must return nil")
	}
	// Drained, the buffer has its whole budget back.
	if !k.Produce(0, make([]byte, budget)) {
		t.Fatal("a frame of the whole budget does not fit a drained buffer")
	}
}

func TestNewKernelBufferPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKernelBuffer(0, nil)
}

// TestKernelBufferConsumeReusesStorage: polls that drain part of the
// buffer and polls that empty it allocate nothing once the queue and
// the result slice have grown, and the frames still leave in order.
func TestKernelBufferConsumeReusesStorage(t *testing.T) {
	k := NewKernelBuffer(1<<20, nil)
	frames := make([][]byte, 64)
	for i := range frames {
		frames[i] = []byte{byte(i)}
	}
	next, want := 0, 0
	cycle := func() {
		for range 5 {
			k.Produce(0, frames[next%len(frames)])
			next++
		}
		for _, r := range k.Consume(3) {
			if r.Data[0] != byte(want%len(frames)) {
				t.Fatalf("frame %d out of order", want)
			}
			want++
		}
		if k.Len() > 20 {
			for _, r := range k.Consume(0) {
				if r.Data[0] != byte(want%len(frames)) {
					t.Fatalf("frame %d out of order", want)
				}
				want++
			}
		}
	}
	for range 100 {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("%v allocations a produce/consume cycle, want 0", n)
	}
}

// TestLedgerAccount: captures from one goroutine and drops from several
// land in one account whose series adds up to its totals, and whose
// dropped total is the sum of the reasons' — also when it is taken while
// frames are still being dropped.
func TestLedgerAccount(t *testing.T) {
	const captures, droppers, drops = 5000, 4, 1000 // one dropper a Reason
	var l Ledger
	var wg sync.WaitGroup
	for g := range droppers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range drops {
				l.Drop(i%7, Reason(g%int(NumReasons)))
			}
		}()
	}
	for i := range captures {
		l.Capture(i / 1000)
		if i == captures/2 {
			per, _, dropped := l.Account()
			var sum uint64
			for _, s := range per {
				sum += s.Dropped
			}
			if sum != dropped {
				t.Fatalf("mid-run account: the series drops %d, the total %d", sum, dropped)
			}
		}
	}
	wg.Wait()
	per, captured, dropped := l.Account()
	var seen, lost uint64
	for _, s := range per {
		seen += s.Captured
		lost += s.Dropped
	}
	if captured != captures || seen != captures || dropped != droppers*drops || lost != dropped {
		t.Fatalf("account: captured %d (series %d), dropped %d (series %d); want %d and %d",
			captured, seen, dropped, lost, captures, droppers*drops)
	}
	for r := range NumReasons {
		if l.Dropped(r) != drops {
			t.Fatalf("%d frames dropped as %s, want %d", l.Dropped(r), r, drops)
		}
	}
	if len(per) != 7 || l.Seconds() != 5 {
		t.Fatalf("series spans %d seconds, %d of them captured; want 7 and 5", len(per), l.Seconds())
	}
	if got := []string{QueueFull.String(), Closed.String(), Aborted.String(), Oversize.String()}; !reflect.DeepEqual(got, []string{"queue_full", "closed", "aborted", "oversize"}) {
		t.Fatalf("reason names %v", got)
	}
}
