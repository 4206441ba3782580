package fidelity

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// The sampler keeps about one packet in every, whether a source numbers
// its packets or not, and the extremes are exact.
func TestSamplerRate(t *testing.T) {
	const n = 100_000
	for _, every := range []int{2, 8, 64} {
		s := NewSampler(every)
		p := 1 / float64(every)
		tol := 5 * math.Sqrt(n*p*(1-p))
		for name, key := range map[string]func(i int) (uint32, uint32, int64){
			"consecutive seq": func(i int) (uint32, uint32, int64) { return 7, uint32(i), 1_000_000 },
			"many sources":    func(i int) (uint32, uint32, int64) { return uint32(i % 97), uint32(i / 97), int64(i) * 1000 },
			"seq always 0":    func(i int) (uint32, uint32, int64) { return 3, 0, int64(i) * 20_000 },
		} {
			got := 0
			for i := 0; i < n; i++ {
				if s.Sampled(key(i)) {
					got++
				}
			}
			if math.Abs(float64(got)-n*p) > tol {
				t.Errorf("every %d, %s: sampled %d of %d, want %.0f ± %.0f", every, name, got, n, n*p, tol)
			}
		}
	}
	all, none := NewSampler(1), NewSampler(0)
	for i := 0; i < 1000; i++ {
		if !all.Sampled(uint32(i), uint32(i*7), int64(i)<<40) || none.Sampled(uint32(i), uint32(i*7), int64(i)<<40) {
			t.Fatalf("packet %d: every 1 must sample it and every 0 must not", i)
		}
	}
	if NewSampler(-1) != 0 {
		t.Error("a negative period must sample nothing")
	}
}

// Lifecycles joins each packet's stage events under its key: an ingest
// opens a record, later stages join the newest record of their key,
// legs collect per receiver, a remote half without ingest gets a record
// of its own, and other events are ignored.
func TestLifecyclesAssemble(t *testing.T) {
	p1, p2 := PacketID(1, 10), PacketID(2, 20)
	ev := func(k EventKind, at, a, b int64) Event { return Event{Kind: k, At: at, A: a, B: b} }
	events := []Event{
		ev(EvPktIngest, 100, p1, 90),
		ev(EvBatchFire, 105, 1, 1),
		ev(EvPktResolve, 110, p1, 2<<32|3),
		ev(EvPktEnqueue, 200, p2, 5), // the remote half of p2
		ev(EvPktEnqueue, 300, p1, 4),
		ev(EvPktEnqueue, 301, p1, 5),
		ev(EvPktSend, 310, p1, 5),
		ev(EvPktSend, 320, p1, 4),
		ev(EvPktSend, 330, p2, 5),
		ev(EvPktIngest, 400, p1, 390), // seq 10 again: a new packet
	}
	ls := Lifecycles(events)
	if len(ls) != 3 {
		t.Fatalf("%d lifecycles, want 3: %+v", len(ls), ls)
	}
	a := ls[0]
	if a.Src != 1 || a.Seq != 10 || a.Stamp != 90 || a.Ingest != 100 || a.Resolve != 110 ||
		a.Kept != 2 || a.Matched != 3 || !a.Complete() {
		t.Errorf("first packet %+v", a)
	}
	if len(a.Legs) != 2 || a.Legs[0] != (Leg{To: 4, Enqueue: 300, Send: 320}) || a.Legs[1] != (Leg{To: 5, Enqueue: 301, Send: 310}) {
		t.Errorf("first packet's legs %+v", a.Legs)
	}
	if b := ls[1]; b.Src != 2 || b.Seq != 20 || b.Ingest != 0 || len(b.Legs) != 1 ||
		b.Legs[0] != (Leg{To: 5, Enqueue: 200, Send: 330}) || b.Complete() {
		t.Errorf("remote half %+v", b)
	}
	if c := ls[2]; c.Seq != 10 || c.Stamp != 390 || len(c.Legs) != 0 || c.Complete() {
		t.Errorf("reused sequence number %+v", c)
	}
	if got := Lifecycles(nil); got == nil || len(got) != 0 {
		t.Errorf("no events: %v, want an empty, non-nil slice", got)
	}
}

// Once the ring wraps, the lifecycles of a snapshot are those of the
// newest packets, oldest first; a packet whose early stages were
// overwritten keeps its later ones, and one still in flight has no legs.
func TestLifecyclesAfterRecorderWrap(t *testing.T) {
	r := NewRecorder(16)
	const packets = 20
	for seq := int64(1); seq <= packets; seq++ {
		id, at := PacketID(1, uint32(seq)), seq*100
		r.Record(EvPktIngest, -1, at, id, at-1)
		r.Record(EvPktResolve, -1, at+1, id, 1<<32|1)
		r.Record(EvPktEnqueue, 0, at+2, id, 2)
		r.Record(EvPktSend, 0, at+3, id, 2)
	}
	id := PacketID(1, packets+1)
	r.Record(EvPktIngest, -1, 5000, id, 4999)
	r.Record(EvPktResolve, -1, 5001, id, 1<<32|1)

	ls := Lifecycles(r.Snapshot())
	if len(ls) != 5 {
		t.Fatalf("%d lifecycles after wrap, want 5: %+v", len(ls), ls)
	}
	if head := ls[0]; head.Seq != packets-3 || head.Ingest != 0 || head.Complete() ||
		len(head.Legs) != 1 || head.Legs[0] != (Leg{To: 2, Enqueue: 1702, Send: 1703}) {
		t.Errorf("packet cut by the wrap %+v, want seq %d with only its leg", head, packets-3)
	}
	for i, l := range ls[1:4] {
		seq := int64(packets - 2 + i)
		if l.Seq != uint32(seq) || l.Ingest != seq*100 || !l.Complete() {
			t.Errorf("lifecycle %d %+v, want seq %d complete", i+1, l, seq)
		}
	}
	if tail := ls[4]; tail.Seq != packets+1 || tail.Resolve != 5001 || len(tail.Legs) != 0 || tail.Complete() {
		t.Errorf("packet in flight %+v", tail)
	}
}

// WriteTrace draws a lifecycle as spans on its source's row: dispatch
// over [ingest, resolve], then per receiver wait up to the enqueue and
// send up to the wire; the raw stage events are not drawn as instants.
func TestWriteTraceDrawsLifecycles(t *testing.T) {
	id := PacketID(3, 7)
	events := []Event{
		{Seq: 1, Kind: EvPktIngest, At: 1_000_000, A: id, B: 900_000},
		{Seq: 2, Kind: EvPktResolve, Shard: -1, At: 1_002_000, A: id, B: 1<<32 | 1},
		{Seq: 3, Kind: EvBatchFire, Shard: 0, At: 5_000_000, A: 0, B: 1},
		{Seq: 4, Kind: EvPktEnqueue, At: 5_000_000, A: id, B: 9},
		{Seq: 5, Kind: EvPktSend, At: 5_010_000, A: id, B: 9},
	}
	var b strings.Builder
	if err := WriteTrace(&b, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, b.String())
	}
	type span struct {
		name    string
		ts, dur int64
	}
	want := []span{{"batch_fire", 5000, 0}, {"dispatch", 1000, 2}, {"wait", 1002, 3998}, {"send", 5000, 10}}
	if len(doc.TraceEvents) != len(want) {
		t.Fatalf("%d trace events, want %d:\n%s", len(doc.TraceEvents), len(want), b.String())
	}
	for i, w := range want {
		e := doc.TraceEvents[i]
		if e.Name != w.name || e.Ph != "X" || e.Ts != w.ts || e.Dur != w.dur {
			t.Errorf("event %d %+v, want %+v", i, e, w)
		}
		if i > 0 && (e.Pid != 1 || e.Tid != 3 || e.Args["pkt"] != "3/7") {
			t.Errorf("packet span %d %+v: want pid 1, the source's row and the packet's name", i, e)
		}
	}
}

// /trace serves the live ring's lifecycles as a JSON array.
func TestPacketsHandler(t *testing.T) {
	m := New(1, Config{}, nil)
	id := PacketID(1, 2)
	m.Recorder().Record(EvPktIngest, -1, 10, id, 5)
	m.Recorder().Record(EvPktResolve, -1, 11, id, 1<<32|1)
	m.Recorder().Record(EvPktEnqueue, 0, 12, id, 2)
	m.Recorder().Record(EvPktSend, 0, 13, id, 2)
	rec := httptest.NewRecorder()
	m.PacketsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	var ls []Lifecycle
	if err := json.Unmarshal(rec.Body.Bytes(), &ls); err != nil {
		t.Fatalf("/trace JSON: %v\n%s", err, rec.Body.String())
	}
	if len(ls) != 1 || !ls[0].Complete() || ls[0].Seq != 2 || ls[0].Legs[0].Send != 13 {
		t.Errorf("/trace lifecycles %+v", ls)
	}
}
