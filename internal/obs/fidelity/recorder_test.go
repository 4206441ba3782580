package fidelity

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestRecorderBasics pins capacity rounding and straight-line append/
// snapshot before any wrap.
func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(10) // rounds up to 16
	if r.Cap() != 16 {
		t.Fatalf("cap %d, want 16", r.Cap())
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("fresh recorder snapshot has %d events", len(got))
	}
	r.Record(EvBatchFire, 2, 100, 5, 7)
	r.Record(EvQueueDrop, -1, 200, 42, 0)
	evs := r.Snapshot()
	if len(evs) != 2 || r.Recorded() != 2 {
		t.Fatalf("snapshot %d events, recorded %d", len(evs), r.Recorded())
	}
	if evs[0].Kind != EvBatchFire || evs[0].Shard != 2 || evs[0].At != 100 ||
		evs[0].A != 5 || evs[0].B != 7 || evs[0].Seq != 1 {
		t.Fatalf("first event %+v", evs[0])
	}
	if evs[1].Kind != EvQueueDrop || evs[1].Shard != -1 || evs[1].A != 42 {
		t.Fatalf("second event %+v (negative shard must round-trip)", evs[1])
	}
}

// TestRecorderWrap fills the ring several times over: the snapshot must
// hold exactly the most recent Cap events, oldest first.
func TestRecorderWrap(t *testing.T) {
	r := NewRecorder(16)
	const total = 100
	for i := 1; i <= total; i++ {
		r.Record(EvBatchFire, 0, int64(i), int64(i), 0)
	}
	evs := r.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("snapshot %d events after wrap, want 16", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(total - 16 + 1 + i)
		if ev.Seq != wantSeq || ev.At != int64(wantSeq) {
			t.Fatalf("event %d: seq=%d at=%d, want seq=%d", i, ev.Seq, ev.At, wantSeq)
		}
	}
}

// TestRecorderConcurrent hammers the ring from several writers while a
// reader snapshots continuously: the race detector must stay quiet and
// every surfaced event must be internally consistent (the payload we
// stored for its sequence, never a tear).
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	const writers, perWriter = 4, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range r.Snapshot() {
				// Every writer stores at = a = its own sequence number.
				if ev.At != int64(ev.Seq) || ev.A != int64(ev.Seq) {
					t.Errorf("torn event surfaced: %+v", ev)
					return
				}
			}
		}
	}()
	var writersDone sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersDone.Add(1)
		go func(w int) {
			defer writersDone.Done()
			for i := 0; i < perWriter; i++ {
				r.recordSelfStamped(EvBatchFire, w)
			}
		}(w)
	}
	writersDone.Wait()
	close(stop)
	wg.Wait()
	if r.Recorded() != writers*perWriter {
		t.Fatalf("recorded %d, want %d", r.Recorded(), writers*perWriter)
	}
}

// recordSelfStamped appends an event whose At and A equal its claimed
// sequence, so concurrent readers can verify slot integrity.
func (r *Recorder) recordSelfStamped(kind EventKind, shard int) {
	seq := r.next.Add(1)
	r.publish(seq, uint64(kind)<<32|uint64(uint32(int32(shard))), int64(seq), int64(seq), 0)
}

// TestWriteTrace pins the chrome://tracing export: valid JSON, one
// traceEvents entry per event, batch fires as complete spans covering
// [due, fire], everything else instant.
func TestWriteTrace(t *testing.T) {
	events := []Event{
		{Seq: 1, Kind: EvBatchFire, Shard: 0, At: 5_000_000, A: 2_000_000, B: 17},
		{Seq: 2, Kind: EvDeadlineMiss, Shard: 0, At: 5_000_000, A: 2_000_000, B: 3},
		{Seq: 3, Kind: EvStateTransition, Shard: -1, At: 6_000_000, A: 0, B: 2},
	}
	var b strings.Builder
	if err := WriteTrace(&b, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d trace events, want 3", len(doc.TraceEvents))
	}
	fire := doc.TraceEvents[0]
	if fire.Name != "batch_fire" || fire.Ph != "X" || fire.Ts != 3000 || fire.Dur != 2000 {
		t.Fatalf("batch fire span %+v (want ts=due µs=3000, dur=lag µs=2000)", fire)
	}
	if doc.TraceEvents[1].Ph != "i" || doc.TraceEvents[2].Tid != -1 {
		t.Fatalf("instant events %+v", doc.TraceEvents[1:])
	}
	// Empty input is still a valid document.
	b.Reset()
	if err := WriteTrace(&b, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
}

// TestEventKindString pins the names trace exports use.
func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		EvBatchFire: "batch_fire", EvDeadlineMiss: "deadline_miss",
		EvQueueDrop: "queue_drop", EvViewRebuild: "view_rebuild",
		EvStateTransition: "state_transition", EvScannerWindow: "scanner_window",
		EvPktIngest: "pkt_ingest", EvPktResolve: "pkt_resolve",
		EvPktEnqueue: "pkt_enqueue", EvPktSend: "pkt_send",
		EventKind(0): "unknown", EventKind(99): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
