// Live capture: the measurement running on a real network path. This
// example starts the eDonkey server daemon on a loopback UDP socket,
// captures it with a ServerSource — the daemon mirrors every datagram
// it receives or sends, the software port mirror of §2 — and points a
// handful of goroutine clients at it: the paper's procedure with real
// sockets instead of the simulator. All pipeline wiring (decode →
// anonymise → records) lives in the Session; the example only runs the
// workload.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"edtrace"
	"edtrace/internal/ed2k"
	"edtrace/internal/edserverd"
	"edtrace/internal/xmlenc"
)

type recordSink struct {
	mu   sync.Mutex
	recs []*xmlenc.Record
}

func (c *recordSink) Write(r *xmlenc.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, r.Clone()) // records are only valid during Write
	return nil
}

func main() {
	d, err := edserverd.Start(edserverd.Config{
		Name:    "live",
		Desc:    "loopback capture demo",
		TCPAddr: "off",
		UDPAddr: "127.0.0.1:0",
	})
	if err != nil {
		log.Fatal(err)
	}
	srvAddr := d.UDPAddr().String()
	fmt.Printf("server on %s\n", srvAddr)

	// The capture: the daemon's own tap, observed by a Session running
	// the same pipeline as the simulator and pcap modes. The source
	// identifies the server, so no WithServerIP is needed.
	sink := &recordSink{}
	session := edtrace.NewSession(edtrace.NewServerSource(d, 0), edtrace.WithSink(sink))
	type outcome struct {
		res *edtrace.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := session.Run(context.Background())
		done <- outcome{res, err}
	}()

	// A few real clients over loopback; each query gets one answer.
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("udp4", srvAddr)
			if err != nil {
				log.Print(err)
				return
			}
			defer conn.Close()
			var fid ed2k.FileID
			fid[0] = byte(c)
			fid[5] = byte(c * 31)

			// Announce one file, search for it, ask for sources.
			offer := &ed2k.OfferFiles{Client: ed2k.ClientID(c + 1), Port: 4662,
				Files: []ed2k.FileEntry{{
					ID: fid,
					Tags: []ed2k.Tag{
						ed2k.StringTag(ed2k.FTFileName, fmt.Sprintf("live demo track %d.mp3", c)),
						ed2k.UintTag(ed2k.FTFileSize, uint32(4<<20+c)),
						ed2k.StringTag(ed2k.FTFileType, "Audio"),
					},
				}}}
			msgs := []ed2k.Message{
				offer,
				&ed2k.SearchReq{Expr: ed2k.Keyword("demo")},
				&ed2k.GetSources{Hashes: []ed2k.FileID{fid}},
				&ed2k.StatReq{Challenge: uint32(c)},
			}
			reply := make([]byte, 64<<10)
			for _, m := range msgs {
				if _, err := conn.Write(ed2k.Encode(m)); err != nil {
					log.Print(err)
					return
				}
				conn.SetReadDeadline(time.Now().Add(2 * time.Second))
				if _, err := conn.Read(reply); err != nil {
					log.Print(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// The daemon mirrors an answer before it sends it, so every
	// datagram is queued by now; shutting down ends the capture.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	out := <-done
	if out.err != nil {
		log.Fatal(out.err)
	}
	rep := out.res.Report
	fmt.Printf("\ncaptured over loopback: %d datagrams, %d decoded, %d records\n",
		rep.Pipeline.UDPDatagrams, rep.Pipeline.DecodedOK, rep.Pipeline.Records)
	fmt.Printf("distinct clients %d, distinct fileIDs %d\n",
		rep.DistinctClients, rep.DistinctFiles)
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, r := range sink.recs {
		if i >= 10 {
			fmt.Printf("... and %d more records\n", len(sink.recs)-10)
			break
		}
		fmt.Printf("record %2d: t=%.3fs client=%d %s (%s)\n", i, r.T, r.Client, r.Op, r.Dir)
	}
	fmt.Println("\nserver stats:", d.Stats().Server.Received)
}
