package edmesh

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"edtrace/internal/ed2k"
	"edtrace/internal/edserverd"
)

// BenchmarkMeshForward measures the client-visible round-trip of a
// GetSources answered from the local index ("local-hit") against one
// answered by forwarding the miss to a peer ("forward-hit") — the mesh's
// price for federation, paid only on misses.
func BenchmarkMeshForward(b *testing.B) {
	start := func(name string, bootstrap ...string) (*edserverd.Daemon, *Mesh) {
		d, err := edserverd.Start(edserverd.Config{Name: name, ExpiryInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		m, err := New(d, Config{
			announceInterval: 50 * time.Millisecond,
			peerTTL:          time.Hour, // benches must never TTL-eject
			forwardTimeout:   time.Second,
			Bootstrap:        bootstrap,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			m.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			d.Shutdown(ctx)
		})
		return d, m
	}
	dA, mA := start("bench-a")
	dB, mB := start("bench-b", dA.UDPAddr().String())
	_ = mB

	// Wait for the two nodes to see each other.
	deadline := time.Now().Add(5 * time.Second)
	for len(mA.Peers()) == 0 || len(mB.Peers()) == 0 {
		if time.Now().After(deadline) {
			b.Fatal("mesh did not converge")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The benchmark file lives only on B.
	var fid ed2k.FileID
	fid[0] = 0xB0
	offer := &ed2k.OfferFiles{Port: 4662, Files: []ed2k.FileEntry{{
		ID: fid,
		Tags: []ed2k.Tag{
			ed2k.StringTag(ed2k.FTFileName, "bench corpus.mp3"),
			ed2k.UintTag(ed2k.FTFileSize, 4<<20),
		},
	}}}

	dial := func(d *edserverd.Daemon) *net.UDPConn {
		ra := d.UDPAddr().(*net.UDPAddr)
		c, err := net.DialUDP("udp4", nil, ra)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		return c
	}
	ask := func(c *net.UDPConn, q ed2k.Message) ed2k.Message {
		if _, err := c.Write(ed2k.Encode(q)); err != nil {
			b.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 64<<10)
		n, err := c.Read(buf)
		if err != nil {
			b.Fatal(err)
		}
		m, err := ed2k.Decode(buf[:n])
		if err != nil {
			b.Fatal(err)
		}
		return m
	}

	cB := dial(dB)
	if ack := ask(cB, offer); ack == nil {
		b.Fatal("offer not acked")
	}

	query := &ed2k.GetSources{Hashes: []ed2k.FileID{fid}}
	check := func(m ed2k.Message) {
		fs, ok := m.(*ed2k.FoundSources)
		if !ok || fs.Hash != fid || len(fs.Sources) == 0 {
			b.Fatalf("answer = %#v", m)
		}
	}

	b.Run("local-hit", func(b *testing.B) {
		c := dial(dB)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			check(ask(c, query))
		}
	})
	b.Run("forward-hit", func(b *testing.B) {
		c := dial(dA)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			check(ask(c, query))
		}
		b.StopTimer()
		if st := mA.Stats(); st.ForwardAnswers == 0 {
			b.Fatalf("no forwards recorded: %+v", st)
		}
	})
	b.Run(fmt.Sprintf("fanout-%d-miss", 1), func(b *testing.B) {
		// The worst case: a keyword miss everywhere still returns after
		// one peer round-trip (the empty MeshForwardRes release), not
		// after the forward timeout.
		c := dial(dA)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := ask(c, &ed2k.SearchReq{Expr: ed2k.Keyword("no-such-needle")})
			if _, ok := m.(*ed2k.SearchRes); !ok {
				b.Fatalf("answer = %#v", m)
			}
		}
	})
}
