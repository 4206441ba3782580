// Command poem-gateway bridges real UDP applications into a running
// PoEm emulation: each port-map binding binds a real host socket, joins
// the emulation as that binding's VMN, and shuttles datagrams between
// the two worlds — an unmodified iperf or routing daemon on one side,
// the emulated multi-radio MANET on the other.
//
// Usage:
//
//	poem-gateway -map gateway.map -server 127.0.0.1:7000 \
//	             -healthz http://127.0.0.1:7002/healthz
//
// The port map (see internal/gateway.ParsePortMap) names one line per
// binding:
//
//	map listen=127.0.0.1:5001 node=1 ch=1 dst=2
//	map listen=127.0.0.1:5003 node=3 ch=1 peer=127.0.0.1:6000
//
// With -healthz the gateway polls the server's fidelity report and
// sheds ingress (drop-newest) whenever the emulation reports degraded
// or worse — feeding more real traffic into a scene that has lost real
// time would only widen the lie. -no-backpressure disables the policy
// (the A9 ablation).
package main

import (
	"encoding/json"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/obs/fidelity"
	"repro/internal/transport"
	"repro/internal/vclock"
)

func main() {
	var (
		mapPath    = flag.String("map", "", "port-map file (required)")
		serverAddr = flag.String("server", "127.0.0.1:7000", "emulation server address")
		scale      = flag.Float64("scale", 1, "emulation time scale; must match the server's -scale")
		healthzURL = flag.String("healthz", "",
			"the server's /healthz URL; polled to drive the backpressure gate (empty to disable)")
		pollEvery = flag.Duration("poll", 500*time.Millisecond, "health poll interval")
		noBP      = flag.Bool("no-backpressure", false,
			"keep forwarding ingress while the emulation is degraded (the A9 ablation)")
		egressDeadline = flag.Duration("egress-deadline", gateway.DefaultEgressDeadline,
			"shed queued egress datagrams older than this instead of delivering them stale (negative to disable)")
		debugAddr = flag.String("debug", "",
			"HTTP debug listen address serving /metrics and /debug/pprof (empty to disable)")
	)
	flag.Parse()
	if *mapPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	bindings, err := gateway.LoadPortMap(*mapPath)
	if err != nil {
		log.Fatalf("poem-gateway: %v", err)
	}

	reg := obs.NewRegistry()
	gw, err := gateway.New(gateway.Config{
		Bindings:            bindings,
		Dial:                transport.TCPDialer(*serverAddr),
		LocalClock:          vclock.NewSystem(*scale),
		Obs:                 reg,
		DisableBackpressure: *noBP,
		EgressDeadline:      *egressDeadline,
		Logf:                log.Printf,
	})
	if err != nil {
		log.Fatalf("poem-gateway: %v", err)
	}
	for i, b := range bindings {
		log.Printf("poem-gateway: %s ↔ node %d ch %d (dst %v, framed=%v)",
			gw.Addr(i), b.Node, b.Channel, b.Dst, b.Framed)
	}

	stopPoll := make(chan struct{})
	if *healthzURL != "" {
		go pollHealth(gw, *healthzURL, *pollEvery, stopPoll)
		log.Printf("poem-gateway: backpressure fed by %s every %v", *healthzURL, *pollEvery)
	}

	var dbg *obs.DebugServer
	if *debugAddr != "" {
		dbg, err = obs.ListenDebug(*debugAddr, obs.Handler(reg, nil))
		if err != nil {
			log.Fatalf("poem-gateway: debug: %v", err)
		}
		log.Printf("poem-gateway: debug on http://%s (/metrics /debug/pprof)", dbg.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("poem-gateway: shutting down")
	close(stopPoll)
	gw.Close()
	if dbg != nil {
		dbg.Close()
	}
	for _, st := range gw.Stats() {
		log.Printf("poem-gateway: node %d: ingress %d (accepted %d, shed %d) egress %d (written %d, late %d)",
			st.Node, st.Ingress, st.Accepted, st.Shed, st.Delivered, st.Written, st.Late)
	}
	if live := gw.Pool().Live(); live != 0 {
		log.Printf("poem-gateway: mbuf leak check: %d pooled buffers still live", live)
	}
}

// pollHealth feeds the server's /healthz state into the backpressure
// gate until stop closes. Poll outcomes run through gateway.HealthPoll:
// one failed poll is grace (the last known state keeps governing — a
// transient blip must not shed ingress), consecutive failures read as
// overrun with exponentially backed-off retries.
func pollHealth(gw *gateway.Gateway, url string, every time.Duration, stop <-chan struct{}) {
	client := &http.Client{Timeout: every}
	hp := gateway.NewHealthPoll(every, 0)
	timer := time.NewTimer(every)
	defer timer.Stop()
	last := fidelity.Healthy
	for {
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		st, delay := hp.Observe(fetchHealth(client, url))
		if st != last {
			log.Printf("poem-gateway: server health %s → %s", last, st)
			last = st
		}
		gw.SetHealth(st)
		timer.Reset(delay)
	}
}

func fetchHealth(client *http.Client, url string) (fidelity.State, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var rep struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return 0, err
	}
	switch rep.State {
	case fidelity.Healthy.String():
		return fidelity.Healthy, nil
	case fidelity.Degraded.String():
		return fidelity.Degraded, nil
	default:
		// The server answered and named a state we treat as shedding —
		// Overrun itself or anything unknown. That is a real report, not a
		// poll failure: no grace applies.
		return fidelity.Overrun, nil
	}
}
