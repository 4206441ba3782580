package main

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mbuf"
	"repro/internal/obs"
	"repro/internal/obs/fidelity"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// layerWindow is what the traced pass captured around the measured
// windows.
type layerWindow struct {
	measured         time.Duration
	delivered        uint64
	shards0, shards1 []core.ShardStat
	ms0, ms1         *runtime.MemStats
}

// layerInputs carries live observations the probes replay.
type layerInputs struct {
	depth    int  // schedule depth seen under load
	operated bool // the live run timed MoveNode/SetRange itself
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// collectLive reads the per-layer figures only the live run can give:
// the server's own stage histograms and counters, the scanner and
// fidelity accounting, and the benchmark's hook and client timings.
func collectLive(res *passResult, r *rig, m *meter, senders []*sender, op *operator, watch *watcher, lw layerWindow) *layerInputs {
	mt := res.Metrics
	st := r.stats()

	var allocs, hits uint64
	for _, p := range r.pools {
		ps := p.Stats()
		allocs, hits = allocs+ps.Allocs, hits+ps.Hits
	}
	mt["mbuf.hit_ratio"] = ratio(float64(hits), float64(allocs))

	// Stage histograms: the busiest server's (they differ only under
	// federation, where each peer times its own half).
	stage := func(name string) *obs.Histogram {
		var best *obs.Histogram
		for _, s := range r.servers {
			if h := s.Obs().FindHistogram(name); h != nil && (best == nil || h.Count() > best.Count()) {
				best = h
			}
		}
		return best
	}
	p50 := func(name string) float64 {
		if h := stage(name); h != nil {
			return h.Quantile(0.5)
		}
		return 0
	}
	if h := stage("poem_flush_batch_entries"); h != nil {
		mt["transport.flush_batch_mean"] = ratio(float64(h.Sum()), float64(h.Count()))
	}
	mt["scene.tick_us_p50"] = p50("poem_scene_tick_ns") / 1e3
	var rebuilds uint64
	for _, n := range r.scenes[0].ViewRebuildCounts() {
		rebuilds += n
	}
	mt["scene.view_rebuilds"] = float64(rebuilds)
	mt["scene.add_nodes_ms"] = float64(r.addNodes.Microseconds()) / 1e3
	if op.ops > 0 { // the operator alternates, starting with a move
		mt["scene.move_node_us"] = ratio(float64(op.moved.Microseconds()), float64((op.ops+1)/2))
		mt["scene.set_range_us"] = ratio(float64(op.ranged.Microseconds()), float64(op.ops/2))
	}

	var d core.ShardStat // measured-window deltas summed over shards
	for i := range lw.shards1 {
		a, b := lw.shards0[i], lw.shards1[i]
		d.Dispatched += b.Dispatched - a.Dispatched
		d.FireBatches += b.FireBatches - a.FireBatches
		d.FireLocks += b.FireLocks - a.FireLocks
		d.PushLocks += b.PushLocks - a.PushLocks
		d.Wakeups += b.Wakeups - a.Wakeups
		d.SpuriousWakes += b.SpuriousWakes - a.SpuriousWakes
		d.KicksDelivered += b.KicksDelivered - a.KicksDelivered
		d.KicksElided += b.KicksElided - a.KicksElided
		d.DeadlineMisses += b.DeadlineMisses - a.DeadlineMisses
	}
	lag := m.fireLag.snapshot()
	mt["sched.fire_lag_p50_us"] = lag.quantile(0.5) / 1e3
	mt["sched.fire_lag_p99_us"] = lag.quantile(0.99) / 1e3
	mt["sched.fire_batch_mean"] = ratio(float64(d.Dispatched), float64(d.FireBatches))
	mt["sched.locks_per_delivery"] = ratio(float64(d.FireLocks+d.PushLocks), float64(d.Dispatched))
	mt["sched.wakeups_per_s"] = float64(d.Wakeups) / lw.measured.Seconds()
	mt["sched.spurious_wakeup_ratio"] = ratio(float64(d.SpuriousWakes), float64(d.Wakeups))
	mt["sched.kick_elide_ratio"] = ratio(float64(d.KicksElided), float64(d.KicksElided+d.KicksDelivered))
	mt["sched.depth_max"] = float64(watch.depthMax)

	var offset time.Duration
	for _, c := range r.clients {
		if o := c.Offset(); o > offset {
			offset = o
		} else if -o > offset {
			offset = -o
		}
	}
	mt["vclock.sync_offset_abs_us"] = float64(offset.Nanoseconds()) / 1e3

	mt["core.dial_us_per_session"] = float64(r.dialNs.Load()) / 1e3 / float64(len(r.clients))
	calls, genLag := &histSnap{}, &histSnap{}
	for _, s := range senders {
		calls.add(s.callNs.snapshot())
		genLag.add(s.genLag.snapshot())
	}
	mt["core.client_send_ns_p50"] = calls.quantile(0.5)
	mt["core.send_block_ratio"] = calls.shareAbove(int64(time.Millisecond))
	f2c := m.fireToClient.snapshot()
	mt["core.fire_to_client_p50_us"] = f2c.quantile(0.5) / 1e3
	mt["core.fire_to_client_p99_us"] = f2c.quantile(0.99) / 1e3
	mt["core.ingest_ns_p50"] = p50("poem_ingest_ns")
	mt["core.dispatch_ns_p50"] = p50("poem_dispatch_ns")
	mt["core.enqueue_ns_p50"] = p50("poem_enqueue_ns")
	mt["core.send_ns_p50"] = p50("poem_send_ns")
	mt["core.queue_drops"] = float64(st.QueueDrops)
	mt["core.abandoned"] = float64(st.Abandoned)
	mt["core.stamp_clamped"] = float64(st.StampClamped)
	mt["core.sendq_depth_max"] = float64(watch.sendqMax)
	mt["core.deadline_miss_ratio"] = ratio(float64(d.DeadlineMisses), float64(d.Dispatched))
	mt["core.goroutines_peak"] = float64(watch.goroutinesMax)

	for _, s := range r.servers {
		if cs := s.Cluster(); cs != nil {
			mt["cluster.remote_entries"] += float64(cs.RemoteEntries)
			mt["cluster.recv_entries"] += float64(cs.RecvEntries)
			mt["cluster.trunk_dropped"] += float64(cs.TrunkDropped)
			if us := float64(cs.StalenessNs) / 1e3; us > mt["cluster.staleness_us"] {
				mt["cluster.staleness_us"] = us
			}
		}
	}
	if r.store != nil {
		mt["record.packets"] = float64(r.store.PacketCount())
	}

	mt["proc.allocs_per_delivery"] = ratio(float64(lw.ms1.Mallocs-lw.ms0.Mallocs), float64(lw.delivered))
	mt["proc.bytes_per_delivery"] = ratio(float64(lw.ms1.TotalAlloc-lw.ms0.TotalAlloc), float64(lw.delivered))
	mt["proc.gc_cycles"] = float64(lw.ms1.NumGC - lw.ms0.NumGC)
	mt["proc.gc_pause_ms"] = float64(lw.ms1.PauseTotalNs-lw.ms0.PauseTotalNs) / 1e6
	mt["client.lateness_p50_us"] = m.all.quantile(0.5) / 1e3
	mt["client.lateness_p99_us"] = m.all.quantile(0.99) / 1e3
	mt["client.lateness_p999_us"] = m.all.quantile(0.999) / 1e3
	mt["client.late_ratio"] = m.all.shareAbove(int64(fidelity.DefaultTolerance))
	mt["client.early_ratio"] = ratio(float64(m.early.Load()), float64(m.samples.Load()))
	mt["gen.lag_p99_us"] = genLag.quantile(0.99) / 1e3

	return &layerInputs{depth: watch.depthMax, operated: op.ops > 0}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perOp times n calls of fn and returns nanoseconds per call.
func perOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeLayers replays the workload's own generated inputs — its payload
// size sequence, its scene, its sender rows — through each package's
// public functions and times the calls, one layer at a time on an idle
// process. These are the unit costs; the live figures above say how
// often each is paid.
func probeLayers(res *passResult, w workload, in *inputs, t timing, live *layerInputs) error {
	runtime.GC() // the torn-down rig's garbage is not the probes' business
	mt, n := res.Metrics, t.Probe
	sizes := in.Flows[0].Sizes
	payload := make([]byte, maxSize(w.Sizes))
	pkt := func(i int) wire.Packet {
		return wire.Packet{Src: in.Flows[0].Src, Dst: in.Flows[0].Dsts[0], Channel: channel, Flow: 1,
			Seq: uint32(i), Stamp: vclock.Time(i), Payload: payload[:sizes[i%sizeSeqLen]]}
	}

	// wire: encode, pooled decode, trunk-batch encode.
	// Encode as the TCP writer does: header only for payloads it hands
	// to writev in place, header plus copy below that size.
	const directPayloadMin = 2 << 10
	var frame []byte
	var eerr error
	data := &wire.Data{}
	mt["wire.encode_ns_per_msg"] = perOp(n, func(i int) {
		data.Pkt = pkt(i)
		if len(data.Pkt.Payload) >= directPayloadMin {
			frame = wire.AppendDataFrame(frame[:0], &data.Pkt)
		} else {
			frame, eerr = wire.AppendFrame(frame[:0], data)
		}
	})
	if eerr != nil {
		return eerr
	}
	const chunk = 1024
	var stream []byte
	for i := 0; i < chunk; i++ {
		var err error
		if stream, err = wire.AppendFrame(stream, &wire.Data{Pkt: pkt(i)}); err != nil {
			return err
		}
	}
	pool := mbuf.NewPool()
	local := pool.NewLocal()
	rd := bytes.NewReader(stream)
	var derr error
	decode := func(i int) {
		if i%chunk == 0 {
			rd.Reset(stream)
		}
		msg, err := wire.ReadMsgPooled(rd, local)
		if err != nil {
			derr = err
			return
		}
		wire.ReleaseMsg(msg)
	}
	perOp(chunk, decode) // fill the pools before counting allocations
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	mt["wire.decode_ns_per_msg"] = perOp(n, decode)
	runtime.ReadMemStats(&ms1)
	mt["wire.decode_allocs_per_msg"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	if derr != nil {
		return derr
	}
	const entries = 16
	batch := &wire.TrunkBatch{}
	for i := 0; i < entries; i++ {
		batch.Entries = append(batch.Entries, wire.TrunkEntry{Due: vclock.Time(i), To: in.Flows[0].Dsts[0], Pkt: pkt(i)})
	}
	var terr error
	mt["wire.trunk_encode_ns_per_entry"] = perOp(n/entries+1, func(int) {
		frame, terr = wire.AppendFrame(frame[:0], batch)
	}) / entries
	if terr != nil {
		return terr
	}

	mt["mbuf.alloc_free_ns"] = perOp(n, func(i int) { local.Alloc(sizes[i%sizeSeqLen]).Free() })
	local.Close()

	// transport: one message end to end over a loopback socket, over the
	// in-process pipe, and one 16-entry batch into a trunk.
	lis, err := transport.ListenTCPWithPool("127.0.0.1:0", pool)
	if err != nil {
		return err
	}
	defer lis.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, _ := lis.Accept()
		accepted <- c
	}()
	cli, err := transport.DialTCP(lis.Addr())
	if err != nil {
		return err
	}
	srvConn := <-accepted
	if srvConn == nil {
		cli.Close()
		return errors.New("transport probe: accept failed")
	}
	tcpN := n / 4
	mt["transport.tcp_ns_per_msg"], err = pump(cli, srvConn, tcpN, pkt)
	if err != nil {
		return err
	}
	pc, ps := transport.Pipe()
	mt["transport.pipe_ns_per_msg"], err = pump(pc, ps, n, pkt)
	if err != nil {
		return err
	}

	go func() { // the trunk's far end: accept and discard
		c, err := lis.Accept()
		if err != nil {
			return
		}
		for {
			msg, err := c.Recv()
			if err != nil {
				c.Close()
				return
			}
			wire.ReleaseMsg(msg)
		}
	}()
	trunk := transport.NewTrunk(transport.TrunkConfig{Dial: transport.TCPDialer(lis.Addr()), Name: "probe"})
	mt["transport.trunk_send_ns_per_batch"] = perOp(n/entries+1, func(int) {
		tb := wire.AcquireTrunkBatch()
		tb.Entries = append(tb.Entries, batch.Entries...)
		if err := trunk.Send(tb); err != nil {
			terr = err
		}
	})
	trunk.Close()
	if terr != nil {
		return terr
	}

	// scene, radio, linkmodel: the workload's own scene, its senders' rows.
	clk := vclock.NewSystem(1)
	sc := scene.New(radio.NewIndexed(radioRange), clk, in.SceneSeed)
	model, err := w.model()
	if err != nil {
		return err
	}
	if err := sc.SetLinkModel(channel, model); err != nil {
		return err
	}
	if err := sc.AddNodes(in.Nodes); err != nil {
		return err
	}
	neighbors := 0
	mt["scene.dispatch_ns"] = perOp(n, func(i int) {
		row, _ := sc.Dispatch(in.Flows[i%numFlows].Src, channel)
		neighbors += len(row)
	})
	mt["scene.neighbors_per_dispatch"] = float64(neighbors) / float64(n)
	rng := rand.New(rand.NewSource(in.ServerSeed))
	mt["linkmodel.evaluate_ns"] = perOp(n, func(i int) {
		if !model.Evaluate(float64(i%35), packetHeader+sizes[i%sizeSeqLen], rng).Drop {
			sink++
		}
	})
	if !live.operated {
		// No operator in this workload: the cost of one scene edit on the
		// idle scene (each publishes a rebuilt channel view, O(nodes)).
		edits := 5
		side := w.Side
		mt["scene.move_node_us"] = perOp(edits, func(i int) {
			id := nodeID(side, i%side, side/2)
			p := nodePos(side, id)
			p.X += 1
			sc.MoveNode(id, p)
		}) / 1e3
		mt["scene.set_range_us"] = perOp(edits, func(i int) {
			sc.SetRange(nodeID(side, i%side, side/2), channel, radioRange+float64(1+i%2))
		}) / 1e3
	}

	// sched: push then batch-pop at the depth the live run reached.
	depth := live.depth
	if depth < sched.DefaultFireBatch {
		depth = sched.DefaultFireBatch
	}
	q := sched.NewHeap()
	for i := 0; i < depth; i++ {
		q.Push(sched.Item{Due: vclock.Time(i), To: in.Flows[0].Dsts[0]})
	}
	buf := make([]sched.Item, sched.DefaultFireBatch)
	rounds := n/len(buf) + 1
	mt["sched.push_pop_ns_per_item"] = perOp(rounds, func(r int) {
		base := vclock.Time(depth + r*len(buf))
		for i := range buf {
			q.Push(sched.Item{Due: base + vclock.Time(i), To: in.Flows[0].Dsts[0]})
		}
		sink += q.PopDueBatch(base, buf)
	}) / float64(len(buf))

	// vclock: a clock read, and the host's timer floor — how far past a
	// 1 ms deadline a waiter wakes. Every lateness figure sits on this.
	mt["vclock.now_ns"] = perOp(n, func(int) { sink += int(clk.Now() & 1) })
	waiter := vclock.NewWaiter(clk)
	waits := n / 1000
	if waits < 20 {
		waits = 20
	}
	over := make([]float64, waits)
	for i := range over {
		due := clk.Now().Add(time.Millisecond)
		for !waiter.Wait(due) {
		}
		over[i] = float64(clk.Now()-due) / 1e3
	}
	sort.Float64s(over)
	mt["vclock.wait_overshoot_p50_us"] = over[len(over)/2]
	mt["vclock.wait_overshoot_p99_us"] = over[len(over)*99/100]

	store := record.NewStore()
	mt["record.add_packet_ns"] = perOp(n, func(i int) {
		store.AddPacket(record.Packet{Kind: record.PacketOut, At: vclock.Time(i), Stamp: vclock.Time(i),
			Src: in.Flows[0].Src, Dst: in.Flows[0].Dsts[0], Relay: in.Flows[0].Dsts[0], Channel: channel,
			Flow: 1, Seq: uint32(i), Size: uint32(packetHeader + sizes[i%sizeSeqLen])})
	})
	sink += store.PacketCount()
	return nil
}

// pump sends n data messages from a to b while b receives them, and
// returns nanoseconds per message end to end.
func pump(a, b transport.Conn, n int, pkt func(int) wire.Packet) (float64, error) {
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			msg, err := b.Recv()
			if err != nil {
				done <- err
				return
			}
			wire.ReleaseMsg(msg)
		}
		done <- nil
	}()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := a.Send(wire.AcquireData(pkt(i))); err != nil {
			return 0, err
		}
	}
	if err := <-done; err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
}
