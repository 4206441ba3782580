// Command poem-exp regenerates the paper's evaluation artifacts: every
// table and figure, plus the measurable claims behind the architecture
// figures (see DESIGN.md §3 for the experiment index).
//
// Usage:
//
//	poem-exp table1
//	poem-exp table2 [-scale 100]
//	poem-exp figure10 [-duration 20s] [-scale 20] [-rate 4000000]
//	poem-exp serialerror
//	poem-exp staleness
//	poem-exp clocksync
//	poem-exp neightable
//	poem-exp linkcurves
//	poem-exp protocols
//	poem-exp capacity
//	poem-exp scalability
//	poem-exp load [-sessions 100000] [-senders 1000] [-packets 4] [-payload 64] [-shards 0] [-scale 200] [-seed 1] [-rt-tolerance 20ms]
//	poem-exp chaos [-seed 1] [-runs 20] [-events 60] [-shards 4]
//	poem-exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/baseline/mobiemu"
	"repro/internal/chaos"
	"repro/internal/experiment"
)

func main() {
	fs := flag.NewFlagSet("poem-exp", flag.ExitOnError)
	var (
		scale    = fs.Float64("scale", 0, "time compression (0 = experiment default)")
		duration = fs.Duration("duration", 0, "emulated duration (0 = default)")
		rate     = fs.Float64("rate", 0, "CBR bits/s for figure10 (0 = 4 Mb/s)")
		seed     = fs.Int64("seed", 1, "random seed")
		runs     = fs.Int("runs", 20, "chaos: scenarios to run on consecutive seeds")
		events   = fs.Int("events", 0, "chaos: events per scenario (0 = default)")
		shards   = fs.Int("shards", 0, "chaos/load: server pipeline shards (0 = default)")
		sessions = fs.Int("sessions", 0, "load: connected client population (0 = 100000)")
		senders  = fs.Int("senders", 0, "load: transmitting subset (0 = sessions/100)")
		packets  = fs.Int("packets", 0, "load: broadcasts per sender (0 = 4)")
		payload  = fs.Int("payload", 0, "load: broadcast payload bytes (0 = 64)")
		rtTol    = fs.Duration("rt-tolerance", 0,
			"load: fidelity deadline-miss tolerance (0 = default)")
	)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs.Parse(os.Args[2:])
	out := os.Stdout

	run := func(name string) error {
		switch name {
		case "table1":
			experiment.Table1(out)
		case "table2":
			_, err := experiment.Table2(out, experiment.Table2Config{Scale: *scale})
			return err
		case "figure10":
			_, err := experiment.Figure10(out, experiment.Figure10Config{
				Scale: *scale, Duration: *duration, RateBps: *rate, Seed: *seed,
			})
			return err
		case "serialerror":
			_, err := experiment.SerialError(out, experiment.SerialErrorConfig{})
			return err
		case "staleness":
			experiment.Staleness(out, mobiemu.Config{
				Stations: 8, Heterogeneity: 2, Seed: *seed,
			}, nil, *duration)
		case "clocksync":
			experiment.ClockSync(out, 10*time.Millisecond)
		case "neightable":
			experiment.NeighTable(out, nil, nil, 0)
		case "linkcurves":
			return experiment.LinkCurves(out)
		case "protocols":
			_, err := experiment.Protocols(out, experiment.ProtocolsConfig{
				Scale: *scale, Duration: *duration, Seed: *seed,
			})
			return err
		case "capacity":
			_, err := experiment.Capacity(out, experiment.CapacityConfig{
				Scale: *scale, Duration: *duration, Seed: *seed,
			})
			return err
		case "scalability":
			_, err := experiment.Scalability(out, experiment.ScalabilityConfig{})
			return err
		case "load":
			_, err := experiment.Load(out, experiment.LoadConfig{
				Sessions: *sessions, Senders: *senders, Packets: *packets,
				Payload: *payload, Shards: *shards,
				Scale: *scale, Seed: *seed, RTTolerance: *rtTol,
			})
			return err
		case "chaos":
			failures := chaos.Sweep(*seed, *runs, *events, *shards, func(rep chaos.Report) {
				status := "ok"
				if !rep.OK() {
					status = fmt.Sprintf("FAIL (%d violations)", len(rep.Violations))
				}
				fmt.Fprintf(out, "seed %-6d %s  deliveries=%-5d digest=%s\n",
					rep.Seed, status, rep.Deliveries, rep.Digest[:16])
			})
			for _, rep := range failures {
				fmt.Fprintln(out)
				fmt.Fprint(out, rep.Failure())
			}
			if len(failures) > 0 {
				return fmt.Errorf("%d of %d chaos runs violated invariants", len(failures), *runs)
			}
			fmt.Fprintf(out, "all %d chaos runs held every invariant\n", *runs)
		default:
			usage()
			os.Exit(2)
		}
		return nil
	}

	names := []string{cmd}
	if cmd == "all" {
		names = []string{"table1", "table2", "figure10", "serialerror",
			"staleness", "clocksync", "neightable", "linkcurves", "protocols", "capacity", "scalability"}
	}
	for i, name := range names {
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "poem-exp %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: poem-exp <experiment> [flags]
experiments: table1 table2 figure10 serialerror staleness clocksync neightable linkcurves protocols capacity scalability load chaos all`)
}
