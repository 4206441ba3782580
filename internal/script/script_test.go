package script

import (
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/vclock"
)

const demo = `
# Table 2-style scenario
region 0 0 500 500

at 0s add 1 pos 100,100 radio ch=1 range=200
at 0s add 2 pos 220,100 radio ch=1 range=200 radio ch=2 range=200
at 0s add 3 pos 240,240 radio ch=1 range=200
at 0s linkmodel ch=1 p0=0.1 p1=0.9 d0=50 r=200
at 0s mobility 2 linear dir=90 speed=10
at 2s range 1 ch=1 120
at 4s radios 1 radio ch=3 range=200
at 5s move 3 to 400,400
at 6s pause
at 7s resume
at 8s remove 3
at 10s end
`

func newScene() (*scene.Scene, *vclock.Manual) {
	clk := vclock.NewManual(0)
	return scene.New(radio.NewIndexed(200), clk, 1), clk
}

func TestParseDemo(t *testing.T) {
	sp, err := Parse(strings.NewReader(demo))
	if err != nil {
		t.Fatal(err)
	}
	if sp.End != vclock.FromSeconds(10) {
		t.Errorf("End = %v", sp.End)
	}
	if len(sp.Steps) != 11 {
		t.Errorf("steps = %d", len(sp.Steps))
	}
	if sp.Region != geom.R(0, 0, 500, 500) {
		t.Errorf("region = %+v", sp.Region)
	}
	// Steps sorted by time.
	for i := 1; i < len(sp.Steps); i++ {
		if sp.Steps[i].At < sp.Steps[i-1].At {
			t.Fatal("steps not sorted")
		}
	}
}

func TestRunDemoAgainstScene(t *testing.T) {
	sp, err := Parse(strings.NewReader(demo))
	if err != nil {
		t.Fatal(err)
	}
	sc, clk := newScene()
	done := make(chan error, 1)
	go func() { done <- sp.Run(sc, clk, nil) }()
	// March the manual clock through the scenario, waiting at each stop
	// for the steps due by then to show in the scene.
	at := func(s float64, what string, done func() bool) {
		t.Helper()
		clk.Set(vclock.FromSeconds(s))
		deadline := time.Now().Add(2 * time.Second)
		for !done() {
			if time.Now().After(deadline) {
				t.Fatalf("t=%v: %s", s, what)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	range1 := func() float64 {
		n1, _ := sc.Node(1)
		r, _ := n1.RangeOn(1)
		return r
	}
	at(0.5, "nodes never added", func() bool { return sc.Len() == 3 })
	if r := range1(); r != 200 {
		t.Errorf("initial range: %v", r)
	}
	at(3, "range never shrunk to 120", func() bool { return range1() == 120 })
	at(4.5, "radios never switched to channel 3", func() bool {
		n1, _ := sc.Node(1)
		return n1.HasChannel(3) && !n1.HasChannel(1)
	})
	at(5.5, "node 3 never moved to 400,400", func() bool {
		n3, _ := sc.Node(3)
		return n3.Pos == geom.V(400, 400)
	})
	at(9, "node 3 never removed", func() bool { return !sc.HasNode(3) })
	clk.Set(vclock.FromSeconds(10))
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("script never finished")
	}
}

func TestRunStop(t *testing.T) {
	sp, err := Parse(strings.NewReader("at 100s move 1 to 5,5\nat 200s end\n"))
	if err != nil {
		t.Fatal(err)
	}
	sc, clk := newScene()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- sp.Run(sc, clk, stop) }()
	time.Sleep(2 * time.Millisecond)
	close(stop)
	select {
	case err := <-done:
		if err == nil {
			t.Error("stopped run returned nil")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stop did not interrupt the script")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"bogus", "unknown command"},
		{"region 1 2 3", "region wants"},
		{"region a b c d", "bad coordinate"},
		{"at x add 1 pos 0,0", "bad time"},
		{"at -5s add 1 pos 0,0", "bad time"},
		{"at 0s", "wants a time and a command"},
		{"at 0s frobnicate 1", "unknown operation"},
		{"at 0s add 1", "add wants"},
		{"at 0s add x pos 0,0", "bad node id"},
		{"at 0s add 1 pos 0", "bad point"},
		{"at 0s add 1 pos 0,0 radio ch=1", "radio wants"},
		{"at 0s add 1 pos 0,0 radio ch=x range=5", "bad channel"},
		{"at 0s add 1 pos 0,0 radio ch=1 range=-5", "bad radio range"},
		{"at 0s add 1 pos 0,0 sideways ch=1 range=5", "expected 'radio'"},
		{"at 0s move 1 2,2", "move wants"},
		{"at 0s range 1 ch=1 nope", "bad range"},
		{"at 0s range 1 xx=1 5", "missing ch="},
		{"at 0s mobility 1", "mobility wants"},
		{"at 0s mobility 1 teleport", "unknown mobility model"},
		{"at 0s mobility 1 linear speed=5", "missing dir="},
		{"at 0s mobility 1 walk min=1", "missing max="},
		{"at 0s mobility 1 gm", "missing speed="},
		{"at 0s mobility 1 gm speed=5 alpha=2", "gauss-markov"},
		{"at 0s linkmodel ch=1 p0=2 p1=3", "linkmodel"},
		{"at 0s linkmodel p0=0.1", "missing ch="},
		{"at 0s linkmodel ch=1 junk", "key=value"},
		{"at 1s end\nat 2s move 1 to 0,0", "after end"},
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) err = %v, want contains %q", c.src, err, c.want)
		}
	}
}

func TestParseCommentsAndBlank(t *testing.T) {
	sp, err := Parse(strings.NewReader("\n# nothing\n   \nat 1s pause # trailing\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Steps) != 1 {
		t.Errorf("steps = %d", len(sp.Steps))
	}
}

func TestMobilityModelsParsed(t *testing.T) {
	src := `
at 0s add 1 pos 50,50 radio ch=1 range=100
at 0s mobility 1 walk min=1 max=5 step=2
at 1s mobility 1 waypoint min=2 max=4 pause=1
at 2s mobility 1 gaussmarkov alpha=0.8 speed=5
at 2.5s mobility 1 gm speed=3 alpha=0.5 sstd=1 dstd=15 step=0.5
at 2.7s mobility 1 static
at 3s end
`
	sp, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sc, clk := newScene()
	done := make(chan error, 1)
	go func() { done <- sp.Run(sc, clk, nil) }()
	clk.Set(vclock.FromSeconds(3))
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("script hung")
	}
}

func TestLinkModelDefaultsWhenOmitted(t *testing.T) {
	sp, err := Parse(strings.NewReader("at 0s linkmodel ch=2 delayms=5\nat 0s end\n"))
	if err != nil {
		t.Fatal(err)
	}
	sc, clk := newScene()
	if err := sp.Run(sc, clk, nil); err != nil {
		t.Fatal(err)
	}
	m := sc.ModelFor(2)
	if m.Loss.LossProb(100) != 0 {
		t.Error("loss should default to NoLoss")
	}
}

// Export → Parse → rebuild must reproduce the node snapshots exactly.
func TestExportRoundTrip(t *testing.T) {
	src, clk := newScene()
	src.AddNode(3, geom.V(240.5, 240), []radio.Radio{{Channel: 1, Range: 200}})
	src.AddNode(1, geom.V(100, 100), []radio.Radio{
		{Channel: 1, Range: 200}, {Channel: 2, Range: 150},
	})
	src.AddNode(2, geom.V(0, 0), nil) // radio-less node survives too

	text := Export(src, geom.R(0, 0, 500, 500))
	sp, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exported script does not parse: %v\n%s", err, text)
	}
	dst, _ := newScene()
	_ = clk
	if err := sp.Run(dst, vclock.NewManual(0), nil); err != nil {
		t.Fatal(err)
	}
	a, b := src.Snapshot(), dst.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("node counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Pos != b[i].Pos {
			t.Errorf("node %v: %+v vs %+v", a[i].ID, a[i], b[i])
		}
		if len(a[i].Radios) != len(b[i].Radios) {
			t.Errorf("node %v radios: %v vs %v", a[i].ID, a[i].Radios, b[i].Radios)
			continue
		}
		for j := range a[i].Radios {
			if a[i].Radios[j] != b[i].Radios[j] {
				t.Errorf("node %v radio %d: %+v vs %+v", a[i].ID, j, a[i].Radios[j], b[i].Radios[j])
			}
		}
	}
}
