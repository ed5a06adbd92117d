// Allocation gates measure the un-instrumented runtime; the race
// detector's shadow allocations would fail them spuriously.
//go:build !race

package ed2k

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestDecodePooledZeroAlloc gates the tentpole property of the pooled
// decoder: once the per-type pools are warm, decoding and releasing the
// high-volume message types allocates nothing. String-carrying payloads
// (file name tags, server descriptions) cost one allocation each — Go
// strings cannot be recycled; TestDecodePooledStringsAllocOnce pins it —
// which is why the gate uses numeric-only messages, the composition of
// real GetSources/StatReq-dominated traffic.
func TestDecodePooledZeroAlloc(t *testing.T) {
	raws := [][]byte{
		Encode(&GetSources{Hashes: []FileID{{1, 2, 3}, {4, 5, 6}}}),
		Encode(&FoundSources{Hash: FileID{9}, Sources: []Endpoint{{ID: 1, Port: 2}, {ID: 3, Port: 4}}}),
		Encode(&StatReq{Challenge: 7}),
		Encode(&StatRes{Challenge: 7, Users: 10, Files: 20}),
		Encode(&OfferAck{Accepted: 3}),
		Encode(&ServerList{Servers: []ServerAddr{{IP: 1, Port: 2}, {IP: 3, Port: 4}}}),
		Encode(&OfferFiles{Files: []FileEntry{{
			ID: FileID{5}, Client: 6, Port: 7,
			Tags: []Tag{UintTag(FTFileSize, 1<<20)},
		}}}),
	}
	decodeAll := func() {
		for _, raw := range raws {
			m, err := DecodePooled(raw)
			if err != nil {
				t.Fatal(err)
			}
			Release(m)
		}
	}
	// A GC cycle empties sync.Pools; garbage left by neighbouring tests
	// can trigger one mid-measurement, so pin the collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 64; i++ {
		decodeAll() // warm the pools and grow slice capacity to steady state
	}
	if allocs := testing.AllocsPerRun(200, decodeAll); allocs != 0 {
		t.Fatalf("pooled decode allocates %.2f times per %d-message run; want 0", allocs, len(raws))
	}
}

// TestDecodePooledStringsAllocOnce: a pooled message that carries string
// values allocates exactly once, the one string every value is a
// substring of, however many entries and tags carry them.
func TestDecodePooledStringsAllocOnce(t *testing.T) {
	raw := Encode(searchResOf(12))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	decode := func() {
		m, err := DecodePooled(raw)
		if err != nil {
			t.Fatal(err)
		}
		Release(m)
	}
	for i := 0; i < 64; i++ {
		decode()
	}
	if allocs := testing.AllocsPerRun(200, decode); allocs != 1 {
		t.Fatalf("pooled 12-result SearchRes allocates %.2f times; want 1", allocs)
	}
}

// decodeAllocCeiling bounds what a fresh Decode of any message kind may
// allocate. CI's alloc gate reads this constant and fails
// BenchmarkDecodeSearchRes and BenchmarkDecodeOfferFiles above it.
const decodeAllocCeiling = 5

// TestDecodeAllocsConstant pins the fresh path's contract: each message
// kind costs the same number of allocations at every size, at most
// decodeAllocCeiling.
func TestDecodeAllocsConstant(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, kind := range []struct {
		name  string
		sizes []int
		build func(n int) Message
	}{
		{"SearchRes", []int{1, 12, 256}, func(n int) Message { return searchResOf(n) }},
		{"OfferFiles", []int{1, 200}, func(n int) Message { return &OfferFiles{Client: 1, Port: 2, Files: entriesOf(n)} }},
		{"FoundSources", []int{1, 200}, func(n int) Message {
			m := &FoundSources{Hash: FileID{9}}
			for i := 0; i < n; i++ {
				m.Sources = append(m.Sources, Endpoint{ID: ClientID(i), Port: 4662})
			}
			return m
		}},
		{"GetSources", []int{1, 64}, func(n int) Message {
			m := &GetSources{}
			for i := 0; i < n; i++ {
				m.Hashes = append(m.Hashes, FileID{byte(i), 1})
			}
			return m
		}},
		{"SearchReq", []int{1, 63}, func(n int) Message { return &SearchReq{Expr: balancedExpr(n)} }},
	} {
		var first float64
		for i, n := range kind.sizes {
			raw := Encode(kind.build(n))
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := Decode(raw); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s of %d: %.0f allocations", kind.name, n, allocs)
			if i == 0 {
				first = allocs
			}
			if allocs != first || allocs > decodeAllocCeiling {
				t.Errorf("%s of %d: %.0f allocations (%.0f at %d); want the same at every size, at most %d",
					kind.name, n, allocs, first, kind.sizes[0], decodeAllocCeiling)
			}
		}
	}
}

// TestStreamReaderAllocs pins what StreamReader.Next costs a frame in
// steady state, frame by frame over one pipelined mix of every pooled
// kind: nothing for a numeric kind, one allocation (the string its values
// share) for a string-carrying pooled kind. SearchReq is not a pooled
// kind and costs what its fresh Decode does.
func TestStreamReaderAllocs(t *testing.T) {
	search := &SearchReq{Expr: And(Keyword("mozart"), SizeAtLeast(1<<20))}
	searchRaw := Encode(search)
	mix := []struct {
		m    Message
		want float64
	}{
		{&GetSources{Hashes: []FileID{{1}, {2}, {3}}}, 0},
		{&FoundSources{Hash: FileID{9}, Sources: []Endpoint{{ID: 1, Port: 2}, {ID: 3, Port: 4}}}, 0},
		{&StatReq{Challenge: 7}, 0},
		{&StatRes{Challenge: 7, Users: 10, Files: 20}, 0},
		{&OfferAck{Accepted: 3}, 0},
		{searchResOf(12), 1},
		{&OfferFiles{Client: 1, Port: 4662, Files: entriesOf(3)}, 1},
		{search, testing.AllocsPerRun(100, func() { Decode(searchRaw) })},
	}
	var round []byte
	for _, k := range mix {
		round = AppendFrameTCP(round, k.m)
	}
	sr := NewStreamReader(&loopReader{data: round})
	next := func() {
		if _, err := sr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	// A GC cycle empties the pools; pin the collector off, as
	// TestDecodePooledZeroAlloc does. A pool's fast path is per P: pin
	// to one, as testing.AllocsPerRun does.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 64*len(mix); i++ {
		next() // warm the pools and grow slice capacity to steady state
	}
	const rounds = 100
	mallocs := make([]uint64, len(mix))
	var ms runtime.MemStats
	for r := 0; r < rounds; r++ {
		for i := range mix {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			next()
			runtime.ReadMemStats(&ms)
			mallocs[i] += ms.Mallocs - before
		}
	}
	for i, k := range mix {
		if got := float64(mallocs[i]) / rounds; got != k.want {
			t.Errorf("%s through StreamReader.Next: %.2f allocations a frame, want %.0f",
				OpcodeName(k.m.Opcode()), got, k.want)
		}
	}
}
