package scene

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/vclock"
)

// TestDispatchMatchesLockedQueries is the snapshot-consistency property
// test: after any sequence of randomized mutations — applied from
// several goroutines while readers hammer the lock-free path (run this
// under -race) — the published dispatch view answers exactly what the
// locked Neighbors/ModelFor queries answer, for every node × channel.
func TestDispatchMatchesLockedQueries(t *testing.T) {
	const (
		nodes    = 24
		channels = 4
		mutators = 4
		opsEach  = 400
	)
	s := newScene(vclock.NewManual(0))
	for id := radio.NodeID(0); id < nodes; id++ {
		radios := []radio.Radio{{Channel: radio.ChannelID(id % channels), Range: 150}}
		if id%3 == 0 { // some multi-radio nodes
			radios = append(radios, radio.Radio{Channel: radio.ChannelID((id + 1) % channels), Range: 90})
		}
		if err := s.AddNode(id, geom.V(float64(id)*20, 0), radios); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for id := radio.NodeID(0); id < nodes; id++ {
					row, m := s.Dispatch(id, radio.ChannelID(id%channels))
					if m.Validate() != nil {
						t.Error("Dispatch returned an incomplete model")
						return
					}
					for i := 1; i < len(row); i++ {
						if row[i-1].ID >= row[i].ID {
							t.Errorf("row of %v unsorted: %v", id, row)
							return
						}
					}
				}
			}
		}()
	}

	var muts sync.WaitGroup
	for g := 0; g < mutators; g++ {
		muts.Add(1)
		go func(seed int64) {
			defer muts.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsEach; i++ {
				id := radio.NodeID(rng.Intn(nodes))
				ch := radio.ChannelID(rng.Intn(channels))
				switch rng.Intn(6) {
				case 0, 1:
					s.MoveNode(id, geom.V(rng.Float64()*400, rng.Float64()*400))
				case 2:
					s.SetRadios(id, []radio.Radio{{Channel: ch, Range: 50 + rng.Float64()*150}})
				case 3:
					s.SetRange(id, ch, 50+rng.Float64()*150)
				case 4:
					s.SetLinkModel(ch, linkmodel.Default())
				case 5:
					s.SetMobility(id, mobility.Linear(float64(rng.Intn(360)), 5, geom.R(0, 0, 400, 400)))
					s.Tick(vclock.FromSeconds(float64(i)))
				}
			}
		}(int64(g) + 7)
	}
	muts.Wait()
	close(stop)
	readers.Wait()

	// Quiesced: the lock-free answers must now agree exactly with the
	// locked read path for every (node, channel) pair.
	for id := radio.NodeID(0); id < nodes; id++ {
		for ch := radio.ChannelID(0); ch < channels; ch++ {
			row, m := s.Dispatch(id, ch)
			want := s.Neighbors(id, ch)
			if len(row) != len(want) || (len(want) > 0 && !reflect.DeepEqual(row, want)) {
				t.Errorf("Dispatch(%v,%v) = %v, locked Neighbors = %v", id, ch, row, want)
			}
			if wantM := s.ModelFor(ch); !reflect.DeepEqual(m, wantM) {
				t.Errorf("Dispatch(%v,%v) model = %+v, locked ModelFor = %+v", id, ch, m, wantM)
			}
		}
	}
}

// TestViewRebuildIsolation pins the update-cost property at the view
// layer: a scene change on channel k never rebuilds channel j's view.
func TestViewRebuildIsolation(t *testing.T) {
	s := newScene(vclock.NewManual(0))
	if err := s.AddNode(1, geom.V(0, 0), oneRadio(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(2, geom.V(10, 0), oneRadio(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(3, geom.V(0, 10), oneRadio(2, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(4, geom.V(10, 10), oneRadio(2, 100)); err != nil {
		t.Fatal(err)
	}
	before1, before2 := s.ViewRebuilds(1), s.ViewRebuilds(2)

	s.MoveNode(1, geom.V(5, 0))                   // topology change on ch1 only
	s.SetRange(2, 1, 80)                          // range change on ch1 only
	s.SetLinkModel(1, linkmodel.Default())        // model change on ch1 only
	if got := s.ViewRebuilds(2); got != before2 { // ch2 must be untouched
		t.Errorf("channel 2 view rebuilt %d times by channel-1 changes", got-before2)
	}
	if got := s.ViewRebuilds(1); got <= before1 {
		t.Error("channel 1 view not rebuilt by channel-1 changes")
	}

	// Sharing check: the untouched channel's view survives by pointer.
	v2 := s.View(2)
	s.MoveNode(1, geom.V(6, 0))
	if s.View(2) != v2 {
		t.Error("channel 2 view pointer churned by a channel-1 move")
	}
}

// TestReplicatedRangeChangeRebuildsOneChannel: a follower applies a
// coordinator's SetRange as the RadiosChanged record it journaled, i.e.
// as SetRadios — or, having fallen behind, restores the coordinator's
// state; either way, on a two-radio node, it must rebuild the one channel
// whose range changed, as SetRange did, and not the node's other channel.
// Chaos seed 3 at three peers (go test ./internal/chaos -run
// TestChaosFederationThreePeer -chaos.seed=3) caught a follower
// rebuilding both.
func TestReplicatedRangeChangeRebuildsOneChannel(t *testing.T) {
	coord := coordScene()
	viaJournal, viaState := NewReplica(newScene(vclock.NewManual(0))), NewReplica(newScene(vclock.NewManual(0)))
	restoreFrom(t, coord, viaJournal, 1<<10)
	two := []radio.Radio{{Channel: 1, Range: 100}, {Channel: 2, Range: 100}}
	if err := coord.AddNode(1, geom.V(0, 0), two); err != nil {
		t.Fatal(err)
	}
	if err := coord.AddNode(2, geom.V(10, 0), two); err != nil {
		t.Fatal(err)
	}
	catchUp(t, coord, viaJournal, 1<<10)
	restoreFrom(t, coord, viaState, 1<<10)
	coord.SetRange(1, 2, 50)
	for _, f := range []struct {
		name  string
		r     *Replica
		apply func()
	}{
		{"journal", viaJournal, func() { catchUp(t, coord, viaJournal, 1<<10) }},
		{"restore", viaState, func() { restoreFrom(t, coord, viaState, 1<<10) }},
	} {
		follower := f.r.sc
		before1, before2 := follower.ViewRebuilds(1), follower.ViewRebuilds(2)
		var events []Event
		follower.Subscribe(func(e Event) { events = append(events, e) })
		f.apply()
		if len(events) != 1 || events[0].Kind != RadiosChanged || events[0].Node != 1 {
			t.Errorf("%s: follower emitted %v, want node 1's radios only", f.name, events)
		}
		if got := follower.ViewRebuilds(1); got != before1 {
			t.Errorf("%s: channel 1 rebuilt %d times by a range change on channel 2", f.name, got-before1)
		}
		if got := follower.ViewRebuilds(2); got != before2+1 {
			t.Errorf("%s: channel 2 rebuilt %d times, want 1", f.name, got-before2)
		}
		if got, want := follower.Neighbors(1, 2), coord.Neighbors(1, 2); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: follower NT(1, ch2) = %v, coordinator %v", f.name, got, want)
		}
	}
}

// TestTickCoalescesViewRebuilds: one tick moving M walkers on the same
// channel rebuilds that channel's view once, not M times.
func TestTickCoalescesViewRebuilds(t *testing.T) {
	s := newScene(vclock.NewManual(0))
	const walkers = 8
	for id := radio.NodeID(0); id < walkers; id++ {
		if err := s.AddNode(id, geom.V(float64(id)*10, 0), oneRadio(1, 100)); err != nil {
			t.Fatal(err)
		}
		s.SetMobility(id, mobility.Linear(float64(id)*37, 10, geom.R(0, 0, 400, 400)))
	}
	s.Tick(vclock.FromSeconds(1)) // anchor every walker's trajectory
	before := s.ViewRebuilds(1)
	s.Tick(vclock.FromSeconds(10)) // every walker moves
	if got := s.ViewRebuilds(1) - before; got != 1 {
		t.Errorf("one tick rebuilt channel 1's view %d times, want 1", got)
	}
}

// TestDispatchIsLockFree: a reader must complete while another
// goroutine holds the scene mutex — the contention assertion for the
// "zero mutex acquisitions on the read path" claim.
func TestDispatchIsLockFree(t *testing.T) {
	s := newScene(vclock.NewManual(0))
	if err := s.AddNode(1, geom.V(0, 0), oneRadio(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(2, geom.V(10, 0), oneRadio(1, 100)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if row, _ := s.Dispatch(1, 1); len(row) != 1 {
			t.Errorf("Dispatch under held scene mutex = %v, want 1 neighbor", row)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Dispatch blocked on the scene mutex")
	}
	s.mu.Unlock()
}

// TestDispatchZeroAllocs pins the allocation-free read path.
func TestDispatchZeroAllocs(t *testing.T) {
	s := newScene(vclock.NewManual(0))
	for id := radio.NodeID(0); id < 8; id++ {
		if err := s.AddNode(id, geom.V(float64(id)*10, 0), oneRadio(1, 100)); err != nil {
			t.Fatal(err)
		}
	}
	var row []radio.Neighbor
	allocs := testing.AllocsPerRun(1000, func() {
		row, _ = s.Dispatch(3, 1)
	})
	if allocs != 0 {
		t.Errorf("Dispatch allocates %v per call, want 0", allocs)
	}
	if len(row) == 0 {
		t.Error("empty neighbor row")
	}
}

// TestTickerStopConcurrent: Stop from several goroutines on the scene's
// ticker must neither panic nor hang.
func TestTickerStopConcurrent(t *testing.T) {
	clk := vclock.NewManual(0)
	s := newScene(clk)
	tk := vclock.Every(clk, 100*time.Millisecond, s.Tick)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk.Stop()
		}()
	}
	wg.Wait()
}

// neighborIDs returns the IDs in id's published row on channel 1.
func neighborIDs(s *Scene, id radio.NodeID) map[radio.NodeID]bool {
	row, _ := s.Dispatch(id, 1)
	ids := make(map[radio.NodeID]bool, len(row))
	for _, nb := range row {
		ids[nb.ID] = true
	}
	return ids
}

// TestMoveRepublishesOnlyChangedRows pins the row granularity of a
// publish: one MoveNode republishes the mover's row and the rows of the
// nodes that reached it before or reach it after — never more, whatever
// the size of the scene.
func TestMoveRepublishesOnlyChangedRows(t *testing.T) {
	for _, side := range []int{16, 48, 128} {
		s := gridScene(t, side)
		id := interiorID(side, 3)
		for _, to := range []geom.Vec2{
			gridPos(side, id).Add(geom.V(1, 0)),   // a nudge: same neighbors, new distances
			gridPos(side, id).Add(geom.V(17, 12)), // a drag: some leave, some join
			gridPos(side, 1),                      // a jump to the far corner
		} {
			affected := neighborIDs(s, id)
			before, rebuilds := s.RowsRepublished(), s.ViewRebuilds(1)
			s.MoveNode(id, to)
			for nb := range neighborIDs(s, id) {
				affected[nb] = true
			}
			got := s.RowsRepublished() - before
			if want := uint64(len(affected) + 1); got > want || got == 0 {
				t.Errorf("%d nodes: moving %v to %v republished %d rows, want 1..%d", side*side, id, to, got, want)
			}
			if n := s.ViewRebuilds(1) - rebuilds; n != 1 {
				t.Errorf("%d nodes: one move counted %d view rebuilds, want 1", side*side, n)
			}
		}
	}
}

// TestSingleAddsRepublishPerNeighbor: a scene built one AddNode at a
// time — the path a federation follower takes, one replicated event per
// node — republishes each node's row once when it joins and once per
// neighbor that joins after it: N·(k+1) rows at most for N nodes of at
// most k neighbors, where a full view rebuild per AddNode was N²/2.
func TestSingleAddsRepublishPerNeighbor(t *testing.T) {
	const side, k = 32, 36
	s := New(radio.NewIndexed(benchRange), vclock.NewManual(0), 1)
	for i := 0; i < side*side; i++ {
		id := radio.NodeID(i + 1)
		if err := s.AddNode(id, gridPos(side, id), oneRadio(1, benchRange)); err != nil {
			t.Fatal(err)
		}
	}
	if got, bound := s.RowsRepublished(), uint64(side*side*(k+1)); got > bound {
		t.Errorf("%d single adds republished %d rows, bound %d", side*side, got, bound)
	}
	if got := s.ViewRebuilds(1); got != side*side {
		t.Errorf("%d single adds counted %d view rebuilds", side*side, got)
	}
	bulk := gridScene(t, side)
	if got := bulk.RowsRepublished(); got != side*side {
		t.Errorf("AddNodes republished %d rows for %d nodes", got, side*side)
	}
	for id := radio.NodeID(1); id <= side*side; id++ {
		a, _ := s.Dispatch(id, 1)
		b, _ := bulk.Dispatch(id, 1)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("row of %v built singly %v, in bulk %v", id, a, b)
		}
	}
}

// TestIdleTickAllocatesNothing: a tick whose walkers all stay where they
// are reads each position from the table without copying the node, and
// publishes nothing.
func TestIdleTickAllocatesNothing(t *testing.T) {
	s := newScene(vclock.NewManual(0))
	for id := radio.NodeID(0); id < 8; id++ {
		if err := s.AddNode(id, geom.V(float64(id)*10, 0), oneRadio(1, 100)); err != nil {
			t.Fatal(err)
		}
		s.SetMobility(id, mobility.Linear(0, 0, geom.R(0, 0, 400, 400))) // speed 0
	}
	now := vclock.Time(0)
	s.Tick(now)
	rebuilds := s.ViewRebuilds(1)
	allocs := testing.AllocsPerRun(100, func() {
		now += vclock.FromSeconds(0.1)
		s.Tick(now)
	})
	if allocs != 0 {
		t.Errorf("a tick in which nothing moved allocates %v times, want 0", allocs)
	}
	if got := s.ViewRebuilds(1); got != rebuilds {
		t.Errorf("ticks in which nothing moved rebuilt the view %d times", got-rebuilds)
	}
}
