// Package experiment regenerates every table and figure of the paper's
// evaluation, plus the measurable claims behind its architecture
// figures. Each experiment is a pure function from a config to a
// structured result with a text rendering; cmd/poem-exp exposes them on
// the command line and bench_test.go wraps them as benchmarks.
//
// Index (see DESIGN.md §3 for the full mapping):
//
//	Table1     — feature comparison PoEm / JEmu / MobiEmu
//	Table2     — proof-of-concept routing-table inspection
//	Figure10   — relay-scenario packet-loss curves (with Table 3 params)
//	SerialErr  — Figure 2 claim: serial vs parallel stamping error
//	Staleness  — Figure 3 claim: distributed scene inconsistency
//	ClockSync  — Figure 5: sync error vs delay asymmetry
//	NeighTable — Figure 6 / §4.2: indexed vs unified update cost
//	LinkCurves — §4.3.2 model curves
package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline/jemu"
	"repro/internal/baseline/mobiemu"
	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// PoEmFeatures is the Table 1 row for this implementation.
func PoEmFeatures() map[string]bool {
	return map[string]bool{
		"real-time scene construction": true,
		"real-time traffic recording":  true,
		"multi-radio environment":      true,
		"post-emulation replay":        true,
	}
}

// Table1 renders the feature-comparison table (paper Table 1).
func Table1(w io.Writer) {
	rows := []struct {
		name     string
		features map[string]bool
	}{
		{"PoEm", PoEmFeatures()},
		{"JEmu", jemu.Features()},
		{"MobiEmu", mobiemu.Features()},
	}
	cols := make([]string, 0, len(rows[0].features))
	for k := range rows[0].features {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	fmt.Fprintf(w, "Table 1. Feature Comparison\n")
	fmt.Fprintf(w, "%-8s", "Emulator")
	for _, c := range cols {
		fmt.Fprintf(w, "  %-29s", c)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s", r.name)
		for _, c := range cols {
			mark := "x"
			if r.features[c] {
				mark = "ok"
			}
			fmt.Fprintf(w, "  %-29s", mark)
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------------
// Shared rig: an in-process PoEm deployment with protocol-bearing nodes.

// Node couples an emulation client with a routing protocol instance —
// the paper's "developed routing protocols are embedded in the clients".
type Node struct {
	Client *core.Client
	Proto  routing.Protocol
	ticker *vclock.Ticker
}

// StartNode dials the server and binds the protocol to the client.
// tickEvery is the protocol beacon period in emulation time (zero
// disables the ticker; tests drive Tick by hand).
func StartNode(id radio.NodeID, dial transport.Dialer, clk vclock.Clock,
	p routing.Protocol, tickClk vclock.WaitClock, tickEvery time.Duration) (*Node, error) {
	cfg := core.ClientConfig{
		ID:         id,
		Dial:       dial,
		LocalClock: clk,
		OnPacket:   p.HandlePacket,
	}
	c, err := core.Dial(cfg)
	if err != nil {
		return nil, err
	}
	p.Start(c)
	n := &Node{Client: c, Proto: p}
	if tickEvery > 0 && tickClk != nil {
		n.ticker = vclock.Every(tickClk, tickEvery, func(vclock.Time) { p.Tick() })
	}
	return n, nil
}

// Stop shuts the node down.
func (n *Node) Stop() {
	if n.ticker != nil {
		n.ticker.Stop()
	}
	n.Proto.Stop()
	n.Client.Close()
}

// renderTable prints a routing table in the paper's Table 2 style.
func renderTable(entries []routing.Entry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# of Routing Entries: %d\n", len(entries))
	for _, e := range entries {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// waitUntil polls cond every poll wall-time until it returns true or
// the wall deadline passes; reports success.
func waitUntil(deadline time.Duration, poll time.Duration, cond func() bool) bool {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if cond() {
			return true
		}
		time.Sleep(poll)
	}
	return cond()
}
