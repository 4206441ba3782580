// Command poem-replay renders a recorded emulation run — the paper's
// post-emulation replay. It reconstructs the scene timeline from the
// recording poemd wrote and prints ASCII frames plus per-window packet
// activity and per-flow statistics.
//
// Usage:
//
//	poem-replay -in run.poem -step 1s -w 60 -h 20
//	poem-replay -in run.poem -flow 1 -window 1s   # flow statistics only
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/energy"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/stats"
)

func main() {
	var (
		in      = flag.String("in", "", "recording file (required)")
		step    = flag.Duration("step", time.Second, "frame step")
		width   = flag.Int("w", 60, "frame width")
		height  = flag.Int("h", 20, "frame height")
		flow    = flag.Int("flow", -1, "analyze this flow instead of replaying (-2 = all flows)")
		window  = flag.Duration("window", time.Second, "statistics window")
		showEng = flag.Bool("energy", false, "print the per-node energy report (§7 power model)")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		log.Fatalf("poem-replay: %v", err)
	}
	store, err := record.Load(f)
	f.Close()
	if err != nil {
		log.Fatalf("poem-replay: %v", err)
	}
	if *showEng {
		rep := energy.Analyze(store, energy.Default80211b())
		rep.Render(os.Stdout)
		return
	}
	if *flow == -2 { // -flow -2: summarize every flow
		for _, rep := range stats.AnalyzeAll(store, *window) {
			fmt.Printf("flow %d: sent=%d delivered=%d dropped=%d loss=%.3f mean delay=%v p99=%v\n",
				rep.Flow, rep.Sent, rep.Delivered, rep.Dropped, rep.LossRate, rep.MeanDelay, rep.P99Delay)
		}
		return
	}
	if *flow >= 0 {
		rep := stats.AnalyzeFlow(store, uint16(*flow), *window)
		fmt.Printf("flow %d: sent=%d delivered=%d dropped=%d loss=%.3f mean delay=%v p99=%v jitter=%v\n",
			rep.Flow, rep.Sent, rep.Delivered, rep.Dropped, rep.LossRate, rep.MeanDelay, rep.P99Delay, rep.Jitter)
		fmt.Printf("real-time loss curve:   %v\n", rep.RealTime)
		fmt.Printf("server-time loss curve: %v\n", rep.ServerTime)
		return
	}
	r := replay.New(store)
	from, to := r.Span()
	fmt.Printf("recording spans %v .. %v (%d packet records, %d scene records)\n\n",
		from, to, store.PacketCount(), store.SceneCount())
	fmt.Print(r.Script(*step, *width, *height))
}
