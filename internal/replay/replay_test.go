package replay

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/scene"
	"repro/internal/vclock"
)

var (
	ch1 = []radio.Radio{{Channel: 1, Range: 100}}
	ch2 = []radio.Radio{{Channel: 2, Range: 60}}
)

// demoStore records a small scripted run: two nodes added, one moves
// twice and switches channel, one removed, with a few packets.
func demoStore() *record.Store {
	st := record.NewStore()
	at := func(s float64) vclock.Time { return vclock.FromSeconds(s) }
	st.AddScene(scene.Event{At: at(0), Kind: scene.NodeAdded, Node: 1, Pos: geom.V(10, 10), Radios: ch1})
	st.AddScene(scene.Event{At: at(0), Kind: scene.NodeAdded, Node: 2, Pos: geom.V(90, 10), Radios: ch1})
	st.AddScene(scene.Event{At: at(2), Kind: scene.NodeMoved, Node: 2, Pos: geom.V(90, 50)})
	st.AddScene(scene.Event{At: at(3.5), Kind: scene.RadiosChanged, Node: 2, Radios: ch2})
	st.AddScene(scene.Event{At: at(4), Kind: scene.NodeMoved, Node: 2, Pos: geom.V(90, 90)})
	st.AddScene(scene.Event{At: at(5), Kind: scene.NodeRemoved, Node: 1})
	st.AddPacket(record.Packet{Kind: record.PacketIn, At: at(1), Src: 1, Dst: 2, Seq: 1})
	st.AddPacket(record.Packet{Kind: record.PacketOut, At: at(1.2), Src: 1, Dst: 2, Relay: 2, Seq: 1})
	st.AddPacket(record.Packet{Kind: record.PacketDrop, At: at(3), Src: 1, Dst: 2, Relay: 2, Seq: 2})
	return st
}

func TestStateAtFoldsEvents(t *testing.T) {
	r := New(demoStore())
	s0 := r.StateAt(vclock.FromSeconds(0))
	if len(s0) != 2 {
		t.Fatalf("t=0: %+v", s0)
	}
	if s0[1].Pos.Y != 10 || !reflect.DeepEqual(s0[1].Radios, ch1) {
		t.Errorf("node 2 initial: %+v", s0[1])
	}
	s3 := r.StateAt(vclock.FromSeconds(3))
	if s3[1].Pos.Y != 50 || s3[1].LastOp != scene.NodeMoved || !reflect.DeepEqual(s3[1].Radios, ch1) {
		t.Errorf("t=3: %+v", s3[1])
	}
	if s := r.StateAt(vclock.FromSeconds(3.5)); s[1].LastOp != scene.RadiosChanged || !reflect.DeepEqual(s[1].Radios, ch2) {
		t.Errorf("t=3.5: %+v", s[1])
	}
	s6 := r.StateAt(vclock.FromSeconds(6))
	if len(s6) != 1 || s6[0].ID != 2 || s6[0].Pos.Y != 90 || !reflect.DeepEqual(s6[0].Radios, ch2) {
		t.Errorf("t=6: %+v", s6)
	}
}

func TestSpanAndRegion(t *testing.T) {
	r := New(demoStore())
	from, to := r.Span()
	if from != 0 || to != vclock.FromSeconds(5) {
		t.Errorf("span %v..%v", from, to)
	}
	reg := r.Region()
	if !reg.Contains(geom.V(10, 10)) || !reg.Contains(geom.V(90, 90)) {
		t.Errorf("region %v..%v misses positions", reg.Min, reg.Max)
	}
}

func TestEmptyStoreRegion(t *testing.T) {
	r := New(record.NewStore())
	reg := r.Region()
	if reg.W() <= 0 || reg.H() <= 0 {
		t.Error("empty recording region degenerate")
	}
	if got := r.StateAt(0); len(got) != 0 {
		t.Errorf("ghost nodes: %+v", got)
	}
}

func TestFrameAt(t *testing.T) {
	r := New(demoStore())
	frame := r.FrameAt(vclock.FromSeconds(1), 30, 10)
	if !strings.Contains(frame, "nodes=2") {
		t.Errorf("header:\n%s", frame)
	}
	if !strings.Contains(frame, "1 @") || !strings.Contains(frame, "2 @") {
		t.Errorf("legend:\n%s", frame)
	}
}

func TestActivityWindows(t *testing.T) {
	r := New(demoStore())
	act := r.Activity(time.Second)
	if len(act) < 2 {
		t.Fatalf("activity: %+v", act)
	}
	// Window starting at 1s holds the in+out pair.
	var w1 *WindowStats
	for i := range act {
		if act[i].From == vclock.FromSeconds(1) {
			w1 = &act[i]
		}
	}
	if w1 == nil || w1.Ingress != 1 || w1.Delivered != 1 {
		t.Errorf("window 1: %+v", w1)
	}
	var w3 *WindowStats
	for i := range act {
		if act[i].From == vclock.FromSeconds(3) {
			w3 = &act[i]
		}
	}
	if w3 == nil || w3.Dropped != 1 {
		t.Errorf("window 3: %+v", w3)
	}
}

func TestScriptRendersRun(t *testing.T) {
	r := New(demoStore())
	script := r.Script(2*time.Second, 20, 6)
	if strings.Count(script, "t=") < 3 {
		t.Errorf("too few frames:\n%s", script)
	}
	if !strings.Contains(script, "activity:") {
		t.Error("activity table missing")
	}
	if !strings.Contains(script, "drop=1") {
		t.Errorf("drop count missing:\n%s", script)
	}
}
