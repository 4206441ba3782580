package gateway

import (
	"testing"

	"repro/internal/gatetest"
	"repro/internal/wire"
)

// Ingress carries real socket traffic into the emulation: peer
// learning, the backpressure gate, frame parsing and the pooled copy
// stay allocation-free, or a gateway at iperf rates melts.
func TestAllocGateGatewayIngress(t *testing.T) {
	gatetest.Allocs(t, "GatewayIngress/plain", 100, 0)
	gatetest.Allocs(t, "GatewayIngress/framed", 100, 0)
}

// BenchmarkGatewayIngress measures the per-datagram ingress path with
// the socket read and the emulation client factored out: peer learning,
// the backpressure gate, frame parsing, the pooled copy and the
// Send-consumes handoff.
func BenchmarkGatewayIngress(b *testing.B) {
	for _, mode := range []struct {
		name   string
		framed bool
	}{{"plain", false}, {"framed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			g := newGateway(Config{
				Bindings: []Binding{{Listen: "x", Node: 1, Channel: 1, Dst: 2, Framed: mode.framed}},
			})
			defer g.Close()
			l := g.links[0]
			l.send = func(p wire.Packet) error { p.Buf.Free(); return nil }
			datagram := make([]byte, 0, 256)
			if mode.framed {
				datagram = AppendHeader(datagram, 2, 1, 7)
			}
			for len(datagram) < 200 {
				datagram = append(datagram, 0xAB)
			}
			// Warm the pool: the first allocation of a size class pays
			// its heap allocation by design.
			l.ingest(datagram, testFrom)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.ingest(datagram, testFrom)
			}
		})
	}
}
