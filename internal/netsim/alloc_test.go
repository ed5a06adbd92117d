// Allocation gates measure the un-instrumented runtime; the race
// detector's shadow allocations would fail them spuriously.
//go:build !race

package netsim

import (
	"context"
	"testing"

	"edtrace/internal/simtime"
)

// TestSendUDPOneAllocation: sending a datagram that fits the MTU and
// delivering it costs one allocation, its frame; the link's FIFO and
// the scheduler's heap reuse their arrays.
func TestSendUDPOneAllocation(t *testing.T) {
	sched := simtime.NewScheduler()
	link := NewLink(sched, 100e6, 5*simtime.Millisecond)
	delivered := 0
	link.Deliver = func(simtime.Time, []byte) { delivered++ }
	payload := make([]byte, 100)
	send := func() {
		link.SendUDP(0x0A000001, 0xC0A80001, 4672, 4665, 1, payload, 1500)
		sched.RunUntil(context.Background(), sched.Now()+simtime.Second)
	}
	send()
	if a := testing.AllocsPerRun(100, send); a != 1 {
		t.Fatalf("%v allocations to send and deliver an unfragmented datagram, want 1", a)
	}
	if delivered != 102 {
		t.Fatalf("%d frames delivered, want 102", delivered)
	}
}
