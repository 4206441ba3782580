// Command poemd runs the PoEm emulation server: it accepts emulation
// clients over TCP, forwards their traffic according to the emulated
// multi-radio MANET scene, records everything for statistics and
// replay, and exposes a control port for live scene manipulation
// (poemctl) — the headless version of the paper's GUI server.
//
// Usage:
//
//	poemd -listen :7000 -control :7001 -record run.poem \
//	      -scene scenario.poem -scale 1
//
// The optional -scene script sets up (and then drives) the scene; with
// no script the scene starts empty and poemctl builds it live.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/geom"
	"repro/internal/mbuf"
	"repro/internal/obs"
	"repro/internal/obs/fidelity"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/scene"
	"repro/internal/script"
	"repro/internal/transport"
	"repro/internal/vclock"
)

func main() {
	var (
		listenAddr  = flag.String("listen", "127.0.0.1:7000", "client listen address")
		controlAddr = flag.String("control", "127.0.0.1:7001", "control listen address (empty to disable)")
		recordPath  = flag.String("record", "", "write the recording here on shutdown (the -wal format)")
		walPath     = flag.String("wal", "", "stream the recording here as it happens (crash-safe)")
		scenePath   = flag.String("scene", "", "scenario script to load and run")
		scale       = flag.Float64("scale", 1, "emulation time scale (2 = twice real time)")
		tick        = flag.Duration("tick", 100*time.Millisecond, "mobility tick (emulated time)")
		seed        = flag.Int64("seed", 1, "link-model dice and mobility seed (every peer of a federation must use the same)")
		autoCreate  = flag.Bool("autocreate", false, "auto-create VMNs for unknown client ids")
		sendQueue   = flag.Int("sendqueue", core.DefaultSendQueueDepth,
			"per-client outbound queue depth before drop-oldest engages")
		maxSkew = flag.Duration("maxskew", core.DefaultMaxStampSkew,
			"clamp client stamps to now+maxskew (negative to disable)")
		debugAddr = flag.String("debug", "",
			"HTTP debug listen address serving /metrics, /trace and /debug/pprof (empty to disable)")
		sampleEvery = flag.Int("obs-sample", 0,
			"time+trace about one packet in N, chosen by a hash of the packet (0 = default, negative = off)")
		shards = flag.Int("shards", 0,
			"pipeline shards the core runs (0 = min(GOMAXPROCS, 8); 1 = single-shard legacy pipeline)")
		leakCheck = flag.Bool("mbuf-leakcheck", false,
			"poison freed packet buffers and verify on shutdown that none leaked (debug aid; costs one memset per free)")
		rtTolerance = flag.Duration("rt-tolerance", 0,
			"deadline-miss tolerance of the real-time fidelity monitor, in emulated time (0 = default 20ms)")
		gatewayMap = flag.String("gateway", "",
			"port-map file bridging real UDP sockets into the scene (see internal/gateway; empty to disable)")
		peerList = flag.String("peer", "",
			"comma-separated client addresses of every cluster peer, this server included, in peer-index order "+
				"(empty = standalone single-process server)")
		peerSelf = flag.Int("peer-self", 0,
			"this server's index into -peer")
		clusterID = flag.String("cluster-id", "poem",
			"cluster name trunk handshakes must match (with -peer)")
		coordinator = flag.Int("coordinator", 0,
			"peer index owning scene mutations; followers apply its replicated stream (with -peer)")
	)
	flag.Parse()

	var peers []core.PeerSpec
	if *peerList != "" {
		for _, addr := range strings.Split(*peerList, ",") {
			peers = append(peers, core.PeerSpec{Addr: strings.TrimSpace(addr)})
		}
	}

	clk := vclock.NewSystem(*scale)
	sc := scene.New(radio.NewIndexed(250), clk, *seed)
	store := record.NewStore()
	reg := obs.NewRegistry()
	srv, err := core.NewServer(core.ServerConfig{
		Clock: clk, Scene: sc, Store: store,
		Seed: *seed, TickStep: *tick, AutoCreateNodes: *autoCreate,
		SendQueueDepth: *sendQueue, MaxStampSkew: *maxSkew,
		Obs: reg, ObsSampleEvery: *sampleEvery,
		Shards: *shards, RTTolerance: *rtTolerance,
		Peers: peers, Self: *peerSelf, ClusterID: *clusterID, Coordinator: *coordinator,
	})
	if err != nil {
		log.Fatalf("poemd: %v", err)
	}
	// Degrading must be loud: every worsening of the server-wide health
	// state logs once, with the flight-recorder dump already captured for
	// /fidelity/dump.
	fid := srv.Fidelity()
	fid.SetOnBreach(func(st fidelity.State, d *fidelity.Dump) {
		log.Printf("poemd: real-time fidelity breach: health=%s (flight recorder: %d events at /fidelity/dump)",
			st, len(d.Events))
	})

	var wal *record.LogWriter
	if *walPath != "" {
		f, err := os.Create(*walPath)
		if err != nil {
			log.Fatalf("poemd: %v", err)
		}
		wal, err = record.NewLogWriter(f)
		if err != nil {
			log.Fatalf("poemd: %v", err)
		}
		if err := store.Attach(wal); err != nil {
			log.Fatalf("poemd: %v", err)
		}
		log.Printf("poemd: streaming recording to %s", *walPath)
	}

	region := geom.R(0, 0, 1000, 1000)
	var sp *script.Script
	if *scenePath != "" {
		f, err := os.Open(*scenePath)
		if err != nil {
			log.Fatalf("poemd: %v", err)
		}
		sp, err = script.Parse(f)
		f.Close()
		if err != nil {
			log.Fatalf("poemd: %v", err)
		}
		region = sp.Region
	}

	// All client reads go through one packet-buffer pool: the steady-state
	// forwarding path then allocates nothing per packet. The pool's
	// live/alloc/hit counters land on /metrics next to the pipeline's.
	pool := mbuf.NewPool()
	pool.SetLeakCheck(*leakCheck)
	pool.Instrument(reg)
	lis, err := transport.ListenTCPWithPool(*listenAddr, pool)
	if err != nil {
		log.Fatalf("poemd: %v", err)
	}
	log.Printf("poemd: clients on %s (scale %gx, %d shards)", lis.Addr(), *scale, srv.Shards())
	if len(peers) > 0 {
		role := "follower"
		if *peerSelf == *coordinator {
			role = "coordinator"
		}
		log.Printf("poemd: federated peer %d of %d (cluster %q, %s); clients for other peers' VMNs are redirected",
			*peerSelf, len(peers), *clusterID, role)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(lis)
	}()

	// An embedded gateway dials the server's own listener like any other
	// client, shares the packet-buffer pool, and — being colocated —
	// subscribes its backpressure gate straight to the fidelity monitor
	// instead of polling /healthz.
	var gw *gateway.Gateway
	if *gatewayMap != "" {
		bindings, err := gateway.LoadPortMap(*gatewayMap)
		if err != nil {
			log.Fatalf("poemd: gateway: %v", err)
		}
		gw, err = gateway.New(gateway.Config{
			Bindings:   bindings,
			Dial:       transport.TCPDialer(lis.Addr()),
			LocalClock: clk,
			Pool:       pool,
			Obs:        reg,
			Monitor:    srv.Fidelity(),
			Shards:     srv.Shards(),
			Logf:       log.Printf,
		})
		if err != nil {
			log.Fatalf("poemd: gateway: %v", err)
		}
		log.Printf("poemd: gateway bridging %d real sockets (map %s)", len(bindings), *gatewayMap)
	}

	// The debug endpoint's scrape handlers read the registry and the
	// flight recorder; serveDone gates them so a late scrape answers 503 instead of racing
	// the store/WAL teardown below.
	var dbg *obs.DebugServer
	if *debugAddr != "" {
		dbg, err = obs.ListenDebug(*debugAddr, obs.Handler(reg, serveDone,
			obs.Endpoint{Pattern: "/healthz", H: fid.HealthHandler()},
			obs.Endpoint{Pattern: "/trace", H: fid.PacketsHandler()},
			obs.Endpoint{Pattern: "/fidelity/trace", H: fid.TraceHandler()},
			obs.Endpoint{Pattern: "/fidelity/dump", H: fid.DumpHandler()},
		))
		if err != nil {
			log.Fatalf("poemd: debug: %v", err)
		}
		log.Printf("poemd: debug on http://%s (/metrics /trace /healthz /fidelity/{trace,dump} /debug/pprof)", dbg.Addr())
	}

	var ctrl *control.Server
	if *controlAddr != "" {
		ctrl = control.NewServer(sc, srv, region)
		go func() {
			if err := ctrl.ListenAndServe(*controlAddr); err != nil {
				log.Printf("poemd: control: %v", err)
			}
		}()
		log.Printf("poemd: control on %s", *controlAddr)
	}

	scriptDone := make(chan error, 1)
	stopScript := make(chan struct{})
	if sp != nil {
		go func() { scriptDone <- sp.Run(sc, clk, stopScript) }()
		log.Printf("poemd: running scenario %s (%d steps, ends at %v)",
			*scenePath, len(sp.Steps), sp.End)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		log.Printf("poemd: shutting down")
	case err := <-scriptDone:
		if err != nil {
			log.Printf("poemd: scenario: %v", err)
		} else {
			log.Printf("poemd: scenario complete")
		}
	}
	// Shutdown ordering: stop the intake (client listener, then the
	// server's sessions/scanner), wait for Serve to return — which also
	// closes the serveDone gate, flipping the debug scrape endpoints to
	// 503 — then stop every operator listener (control, debug) so no
	// handler can touch the store once the WAL sync/close below begins.
	close(stopScript)
	if gw != nil {
		// The gateway holds client sessions on the listener below; close
		// it first so its sockets drain before the intake disappears.
		gw.Close()
	}
	lis.Close()
	srv.Close()
	<-serveDone
	if ctrl != nil {
		ctrl.Close()
	}
	if dbg != nil {
		dbg.Close()
	}
	if *leakCheck {
		if live := pool.Live(); live != 0 {
			log.Printf("poemd: mbuf leak check: %d pooled buffers still live after shutdown", live)
		} else {
			log.Printf("poemd: mbuf leak check: clean")
		}
	}

	if wal != nil {
		if err := store.Sync(); err != nil {
			log.Printf("poemd: wal sync: %v", err)
		}
		if err := wal.Close(); err != nil {
			log.Printf("poemd: wal close: %v", err)
		}
	}
	if *recordPath != "" {
		f, err := os.Create(*recordPath)
		if err != nil {
			log.Fatalf("poemd: %v", err)
		}
		if err := store.Save(f); err != nil {
			log.Fatalf("poemd: save: %v", err)
		}
		f.Close()
		fmt.Printf("recording: %d packet records, %d scene records → %s\n",
			store.PacketCount(), store.SceneCount(), *recordPath)
	}
}
