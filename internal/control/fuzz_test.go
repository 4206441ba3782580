package control

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/vclock"
)

// FuzzControlExecute feeds arbitrary operator input to the control
// listener's command path, one Execute per line as Session would, plus
// the raw input in one call. No input may panic, and whatever the
// commands did to the scene, the lock-free dispatch view must still
// answer exactly what the locked scene queries answer for every node
// the scene lists.
func FuzzControlExecute(f *testing.F) {
	// One line per verb, from control_test.go.
	for _, line := range []string{
		"add 1 pos 100,100 radio ch=1 range=200",
		"move 1 to 250,250",
		"range 1 ch=1 120",
		"radios 1 radio ch=3 range=90",
		"mobility 2 linear dir=90 speed=10",
		"linkmodel ch=1 p0=0.1 p1=0.9 d0=50 r=200",
		"remove 1",
		"pause",
		"resume",
		"show",
		"nodes",
		"dump",
		"stats",
		"quit",
		"frobnicate",
		"add 1 pos",
		"",
	} {
		f.Add(line)
	}
	f.Add("add 1 pos 0,0 radio ch=1 range=200\nadd 2 pos 50,0 radio ch=1 range=200 radio ch=2 range=90\n" +
		"mobility 2 linear dir=90 speed=10\nmove 1 to 10,10\nshow\nstats\nremove 1\nnodes")
	f.Fuzz(func(t *testing.T, src string) {
		clk := vclock.NewManual(0)
		sc := scene.New(radio.NewIndexed(200), clk, 1)
		emu, err := core.NewServer(core.ServerConfig{Clock: clk, Scene: sc, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer emu.Close()
		srv := NewServer(sc, emu, geom.R(0, 0, 500, 500))
		for _, line := range strings.Split(src, "\n") {
			srv.Execute(line)
		}
		srv.Execute(src)
		checkSceneConsistent(t, sc)
	})
}

func checkSceneConsistent(t *testing.T, sc *scene.Scene) {
	t.Helper()
	ids := sc.NodeIDs()
	known := make(map[radio.NodeID]bool, len(ids))
	for i, id := range ids {
		if i > 0 && ids[i-1] >= id {
			t.Fatalf("NodeIDs not strictly ascending: %v", ids)
		}
		known[id] = true
	}
	for _, n := range sc.Snapshot() {
		for _, r := range n.Radios {
			row, m := sc.Dispatch(n.ID, r.Channel)
			want := sc.Neighbors(n.ID, r.Channel)
			if len(row) != len(want) || (len(want) > 0 && !reflect.DeepEqual(row, want)) {
				t.Fatalf("Dispatch(%v,%v) = %v, locked Neighbors = %v", n.ID, r.Channel, row, want)
			}
			for _, nb := range row {
				if !known[nb.ID] || nb.ID == n.ID {
					t.Fatalf("Dispatch(%v,%v) lists %v; scene nodes are %v", n.ID, r.Channel, nb.ID, ids)
				}
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("Dispatch(%v,%v) model invalid: %v", n.ID, r.Channel, err)
			}
			if wantM := sc.ModelFor(r.Channel); !reflect.DeepEqual(m, wantM) {
				t.Fatalf("Dispatch(%v,%v) model = %+v, locked ModelFor = %+v", n.ID, r.Channel, m, wantM)
			}
		}
	}
}
