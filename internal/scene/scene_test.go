package scene

import (
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/vclock"
)

func newScene(clk vclock.Clock) *Scene {
	return New(radio.NewIndexed(200), clk, 42)
}

func oneRadio(ch radio.ChannelID, r float64) []radio.Radio {
	return []radio.Radio{{Channel: ch, Range: r}}
}

func TestAddRemoveNode(t *testing.T) {
	s := newScene(vclock.NewManual(0))
	if err := s.AddNode(1, geom.V(0, 0), oneRadio(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(1, geom.V(5, 5), nil); err == nil {
		t.Error("duplicate add accepted")
	}
	if !s.HasNode(1) || s.Len() != 1 {
		t.Error("node missing")
	}
	s.RemoveNode(1)
	if s.HasNode(1) || s.Len() != 0 {
		t.Error("node not removed")
	}
	s.RemoveNode(1) // idempotent
}

func TestEventsEmitted(t *testing.T) {
	clk := vclock.NewManual(vclock.FromSeconds(5))
	s := newScene(clk)
	var mu sync.Mutex
	var events []Event
	s.Subscribe(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	s.AddNode(1, geom.V(1, 2), oneRadio(1, 100))
	s.MoveNode(1, geom.V(3, 4))
	s.SetRadios(1, oneRadio(2, 150))
	s.SetRange(1, 2, 120)
	s.SetLinkModel(2, linkmodel.Default())
	s.SetPaused(true)
	s.RemoveNode(1)
	mu.Lock()
	defer mu.Unlock()
	kinds := []EventKind{NodeAdded, NodeMoved, RadiosChanged, RadiosChanged, LinkModelChanged, PausedChanged, NodeRemoved}
	if len(events) != len(kinds) {
		t.Fatalf("got %d events: %+v", len(events), events)
	}
	for i, k := range kinds {
		if events[i].Kind != k {
			t.Errorf("event %d = %v, want %v", i, events[i].Kind, k)
		}
		if events[i].At != vclock.FromSeconds(5) {
			t.Errorf("event %d stamped %v", i, events[i].At)
		}
	}
}

func TestOpsOnMissingNodesAreNoops(t *testing.T) {
	s := newScene(vclock.NewManual(0))
	var count int
	s.Subscribe(func(Event) { count++ })
	s.MoveNode(9, geom.V(1, 1))
	s.SetRadios(9, nil)
	s.SetRange(9, 1, 10)
	s.SetMobility(9, mobility.Static{})
	s.ClearMobility(9)
	if count != 0 {
		t.Errorf("%d events from no-ops", count)
	}
}

func TestSetRangeOnlyTouchesMatchingChannel(t *testing.T) {
	s := newScene(vclock.NewManual(0))
	s.AddNode(1, geom.V(0, 0), []radio.Radio{
		{Channel: 1, Range: 100},
		{Channel: 2, Range: 200},
	})
	s.SetRange(1, 1, 50)
	n, _ := s.Node(1)
	if r, _ := n.RangeOn(1); r != 50 {
		t.Errorf("ch1 range = %v", r)
	}
	if r, _ := n.RangeOn(2); r != 200 {
		t.Errorf("ch2 range = %v, must be untouched", r)
	}
	// SetRange to the same value emits nothing.
	var count int
	s.Subscribe(func(Event) { count++ })
	s.SetRange(1, 1, 50)
	if count != 0 {
		t.Error("no-change SetRange emitted an event")
	}
}

func TestNeighborQueriesThroughScene(t *testing.T) {
	s := newScene(vclock.NewManual(0))
	s.AddNode(1, geom.V(0, 0), oneRadio(1, 100))
	s.AddNode(2, geom.V(60, 0), oneRadio(1, 100))
	if nbrs := s.Neighbors(1, 1); len(nbrs) != 1 || nbrs[0].ID != 2 {
		t.Errorf("Neighbors = %v", nbrs)
	}
	s.MoveNode(2, geom.V(500, 0))
	if nbrs := s.Neighbors(1, 1); len(nbrs) != 0 {
		t.Errorf("after move: %v", nbrs)
	}
}

func TestLinkModelSelection(t *testing.T) {
	s := newScene(vclock.NewManual(0))
	def := s.ModelFor(7)
	if def.Validate() != nil {
		t.Fatal("default model invalid")
	}
	custom := linkmodel.Model{
		Loss:      linkmodel.ConstantLoss{P: 0.5},
		Bandwidth: linkmodel.ConstantBandwidth{Bps: 1e6},
		Delay:     linkmodel.ConstantDelay{D: time.Millisecond},
	}
	if err := s.SetLinkModel(7, custom); err != nil {
		t.Fatal(err)
	}
	if got := s.ModelFor(7); got.Loss.LossProb(0) != 0.5 {
		t.Error("custom model not returned")
	}
	if got := s.ModelFor(8); got.Loss.LossProb(0) != 0 {
		t.Error("other channels must keep the default")
	}
	if err := s.SetLinkModel(9, linkmodel.Model{}); err == nil {
		t.Error("invalid model accepted")
	}
	if err := s.SetDefaultLinkModel(custom); err != nil {
		t.Fatal(err)
	}
	if got := s.ModelFor(8); got.Loss.LossProb(0) != 0.5 {
		t.Error("default model not replaced")
	}
}

func TestMobilityTick(t *testing.T) {
	clk := vclock.NewManual(0)
	s := newScene(clk)
	s.AddNode(1, geom.V(100, 100), oneRadio(1, 100))
	s.SetMobility(1, mobility.Linear(0, 10, geom.R(0, 0, 10000, 10000))) // east 10 u/s
	// Anchor the walker at t=0.
	s.Tick(0)
	clk.Set(vclock.FromSeconds(5))
	s.Tick(vclock.FromSeconds(5))
	n, _ := s.Node(1)
	if n.Pos.X <= 100 {
		t.Errorf("node did not move: %v", n.Pos)
	}
	if got := n.Pos.X; got < 149 || got > 151 {
		t.Errorf("x = %v, want ≈150", got)
	}
}

func TestMobilityPauseFreezes(t *testing.T) {
	clk := vclock.NewManual(0)
	s := newScene(clk)
	s.AddNode(1, geom.V(0, 0), oneRadio(1, 100))
	s.SetMobility(1, mobility.Linear(0, 100, geom.R(0, 0, 1e6, 1e6)))
	s.Tick(0)
	s.SetPaused(true)
	if !s.Paused() {
		t.Error("Paused() false")
	}
	s.Tick(vclock.FromSeconds(10))
	n, _ := s.Node(1)
	if n.Pos.X != 0 {
		t.Errorf("moved while paused: %v", n.Pos)
	}
	s.SetPaused(false)
	s.Tick(vclock.FromSeconds(20))
	n, _ = s.Node(1)
	if n.Pos.X == 0 {
		t.Error("did not resume")
	}
}

func TestManualMoveDetachesWalker(t *testing.T) {
	clk := vclock.NewManual(0)
	s := newScene(clk)
	s.AddNode(1, geom.V(0, 0), oneRadio(1, 100))
	s.SetMobility(1, mobility.Linear(0, 100, geom.R(0, 0, 1e6, 1e6)))
	s.Tick(0)
	s.MoveNode(1, geom.V(500, 500)) // operator drag
	s.Tick(vclock.FromSeconds(10))
	n, _ := s.Node(1)
	if n.Pos != geom.V(500, 500) {
		t.Errorf("walker still driving after manual move: %v", n.Pos)
	}
}

func TestClearMobility(t *testing.T) {
	clk := vclock.NewManual(0)
	s := newScene(clk)
	s.AddNode(1, geom.V(0, 0), oneRadio(1, 100))
	s.SetMobility(1, mobility.Linear(0, 100, geom.R(0, 0, 1e6, 1e6)))
	s.Tick(0)
	s.Tick(vclock.FromSeconds(1))
	n1, _ := s.Node(1)
	s.ClearMobility(1)
	s.Tick(vclock.FromSeconds(10))
	n2, _ := s.Node(1)
	if n1.Pos != n2.Pos {
		t.Errorf("moved after ClearMobility: %v → %v", n1.Pos, n2.Pos)
	}
}

func TestSnapshotAndNodeIDs(t *testing.T) {
	s := newScene(vclock.NewManual(0))
	s.AddNode(3, geom.V(3, 3), oneRadio(1, 100))
	s.AddNode(1, geom.V(1, 1), oneRadio(2, 100))
	s.AddNode(2, geom.V(2, 2), nil) // radio-less node must still appear
	s.SetMobility(1, mobility.Static{})
	snap := s.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d nodes", len(snap))
	}
	for i, want := range []radio.NodeID{1, 2, 3} {
		if snap[i].ID != want {
			t.Errorf("snapshot[%d] = %v", i, snap[i].ID)
		}
	}
	if !snap[0].Mobile || snap[1].Mobile {
		t.Error("Mobile flags wrong")
	}
	ids := s.NodeIDs()
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Errorf("NodeIDs = %v", ids)
	}
}

func TestTickerDrivesMobility(t *testing.T) {
	clk := vclock.NewSystem(1000) // 1ms wall = 1s emulated
	s := newScene(clk)
	s.AddNode(1, geom.V(0, 500), oneRadio(1, 100))
	s.SetMobility(1, mobility.Linear(0, 10, geom.R(0, 0, 10000, 10000)))
	tk := vclock.Every(clk, 100*time.Millisecond, s.Tick)
	defer tk.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n, _ := s.Node(1)
		if n.Pos.X > 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ticker never moved the node")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTickerStopIdempotent(t *testing.T) {
	clk := vclock.NewSystem(100)
	s := newScene(clk)
	tk := vclock.Every(clk, time.Second, s.Tick)
	tk.Stop()
	tk.Stop()
}

func TestDeterministicMobilitySeeding(t *testing.T) {
	run := func() geom.Vec2 {
		clk := vclock.NewManual(0)
		s := newScene(clk)
		s.AddNode(1, geom.V(500, 500), oneRadio(1, 100))
		s.SetMobility(1, mobility.RandomWalk(1, 10, 2, geom.R(0, 0, 1000, 1000)))
		s.Tick(0)
		for i := 1; i <= 50; i++ {
			s.Tick(vclock.FromSeconds(float64(i)))
		}
		n, _ := s.Node(1)
		return n.Pos
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic mobility: %v vs %v", a, b)
	}
}

func TestConcurrentSceneAccess(t *testing.T) {
	clk := vclock.NewSystem(1000)
	s := newScene(clk)
	for i := 0; i < 20; i++ {
		s.AddNode(radio.NodeID(i), geom.V(float64(i*10), 0), oneRadio(1, 150))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Mutators.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := radio.NodeID((g*5 + i) % 20)
				s.MoveNode(id, geom.V(float64(i%500), float64(g*100)))
				s.SetRange(id, 1, float64(100+i%100))
			}
		}(g)
	}
	// Readers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Neighbors(radio.NodeID(i%20), 1)
				s.Snapshot()
				s.ModelFor(1)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}
