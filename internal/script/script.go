// Package script implements PoEm's scenario scripting — the paper's §7
// future work ("fine-granularity performance evaluations driven by
// scenario scripts"), realized as a small line-oriented DSL that drives
// the same scene.Controller API the GUI would.
//
// Grammar (one command per line, '#' comments):
//
//	region <x0> <y0> <x1> <y1>
//	at <time> add <id> pos <x>,<y> [radio ch=<n> range=<r>]...
//	at <time> remove <id>
//	at <time> move <id> to <x>,<y>
//	at <time> range <id> ch=<n> <r>
//	at <time> radios <id> [radio ch=<n> range=<r>]...
//	at <time> mobility <id> linear dir=<deg> speed=<u/s>
//	at <time> mobility <id> walk min=<u/s> max=<u/s> step=<s>
//	at <time> mobility <id> waypoint min=<u/s> max=<u/s> pause=<s>
//	at <time> mobility <id> gaussmarkov alpha=<0..1> speed=<u/s> [sstd=] [dstd=] [step=]
//	at <time> mobility <id> static
//	at <time> linkmodel ch=<n> [p0= p1= d0= r=] [bwmax= bwmin=] [delayms=]
//	at <time> pause
//	at <time> resume
//	at <time> end
//
// Times accept Go duration syntax ("5s", "1m30s", "250ms").
package script

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/vclock"
)

// Step is one timed scene operation.
type Step struct {
	At   vclock.Time
	Line int
	Desc string
	Do   func(*scene.Scene) error
}

// Script is a parsed scenario.
type Script struct {
	Region geom.Rect
	Steps  []Step
	End    vclock.Time // time of the `end` command (or the last step)
}

// Parse reads and validates a scenario.
func Parse(r io.Reader) (*Script, error) {
	s := &Script{Region: geom.R(0, 0, 1000, 1000)}
	sc := bufio.NewScanner(r)
	line := 0
	sawEnd := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "region":
			if len(fields) != 5 {
				return nil, errAt(line, "region wants 4 coordinates")
			}
			var c [4]float64
			for i := 0; i < 4; i++ {
				v, err := strconv.ParseFloat(fields[i+1], 64)
				if err != nil {
					return nil, errAt(line, "bad coordinate %q", fields[i+1])
				}
				c[i] = v
			}
			s.Region = geom.R(c[0], c[1], c[2], c[3])
		case "at":
			if sawEnd {
				return nil, errAt(line, "command after end")
			}
			if len(fields) < 3 {
				return nil, errAt(line, "at wants a time and a command")
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil || d < 0 {
				return nil, errAt(line, "bad time %q", fields[1])
			}
			at := vclock.FromDuration(d)
			if fields[2] == "end" {
				s.End = at
				sawEnd = true
				continue
			}
			step, err := s.parseCommand(line, at, fields[2:])
			if err != nil {
				return nil, err
			}
			s.Steps = append(s.Steps, step)
		default:
			return nil, errAt(line, "unknown command %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(s.Steps, func(i, j int) bool { return s.Steps[i].At < s.Steps[j].At })
	if !sawEnd {
		if len(s.Steps) > 0 {
			s.End = s.Steps[len(s.Steps)-1].At
		}
	}
	if s.End < 0 || (len(s.Steps) > 0 && s.End < s.Steps[len(s.Steps)-1].At) {
		return nil, fmt.Errorf("script: end at %v precedes the last step", s.End)
	}
	return s, nil
}

func errAt(line int, format string, args ...interface{}) error {
	return fmt.Errorf("script: line %d: %s", line, fmt.Sprintf(format, args...))
}

// kv parses key=value fields into a map, returning leftovers.
func kv(fields []string) (map[string]string, []string) {
	m := make(map[string]string)
	var rest []string
	for _, f := range fields {
		if i := strings.IndexByte(f, '='); i > 0 {
			m[f[:i]] = f[i+1:]
		} else {
			rest = append(rest, f)
		}
	}
	return m, rest
}

func (s *Script) parseCommand(line int, at vclock.Time, fields []string) (Step, error) {
	op := fields[0]
	args := fields[1:]
	desc := strings.Join(fields, " ")
	step := Step{At: at, Line: line, Desc: desc}
	switch op {
	case "add":
		if len(args) < 3 || args[1] != "pos" {
			return step, errAt(line, "add wants: add <id> pos <x>,<y> [radio ...]")
		}
		id, err := parseID(args[0])
		if err != nil {
			return step, errAt(line, "%v", err)
		}
		pos, err := parsePoint(args[2])
		if err != nil {
			return step, errAt(line, "%v", err)
		}
		radios, err := parseRadios(args[3:])
		if err != nil {
			return step, errAt(line, "%v", err)
		}
		step.Do = func(sc *scene.Scene) error { return sc.AddNode(id, pos, radios) }
	case "remove":
		id, err := parseID(arg0(args))
		if err != nil {
			return step, errAt(line, "%v", err)
		}
		step.Do = func(sc *scene.Scene) error { sc.RemoveNode(id); return nil }
	case "move":
		if len(args) != 3 || args[1] != "to" {
			return step, errAt(line, "move wants: move <id> to <x>,<y>")
		}
		id, err := parseID(args[0])
		if err != nil {
			return step, errAt(line, "%v", err)
		}
		pos, err := parsePoint(args[2])
		if err != nil {
			return step, errAt(line, "%v", err)
		}
		step.Do = func(sc *scene.Scene) error { sc.MoveNode(id, pos); return nil }
	case "range":
		if len(args) != 3 {
			return step, errAt(line, "range wants: range <id> ch=<n> <r>")
		}
		id, err := parseID(args[0])
		if err != nil {
			return step, errAt(line, "%v", err)
		}
		m, _ := kv(args[1:2])
		ch, err := parseChannel(m["ch"])
		if err != nil {
			return step, errAt(line, "%v", err)
		}
		r, err := strconv.ParseFloat(args[2], 64)
		if err != nil || r < 0 {
			return step, errAt(line, "bad range %q", args[2])
		}
		step.Do = func(sc *scene.Scene) error { sc.SetRange(id, ch, r); return nil }
	case "radios":
		if len(args) < 1 {
			return step, errAt(line, "radios wants an id")
		}
		id, err := parseID(args[0])
		if err != nil {
			return step, errAt(line, "%v", err)
		}
		radios, err := parseRadios(args[1:])
		if err != nil {
			return step, errAt(line, "%v", err)
		}
		step.Do = func(sc *scene.Scene) error { sc.SetRadios(id, radios); return nil }
	case "mobility":
		if len(args) < 2 {
			return step, errAt(line, "mobility wants: mobility <id> <model> ...")
		}
		id, err := parseID(args[0])
		if err != nil {
			return step, errAt(line, "%v", err)
		}
		model, err := s.parseMobility(line, args[1], args[2:])
		if err != nil {
			return step, err
		}
		if model == nil { // static
			step.Do = func(sc *scene.Scene) error { sc.ClearMobility(id); return nil }
		} else {
			step.Do = func(sc *scene.Scene) error { sc.SetMobility(id, model); return nil }
		}
	case "linkmodel":
		m, rest := kv(args)
		if len(rest) != 0 {
			return step, errAt(line, "linkmodel takes only key=value arguments, got %v", rest)
		}
		ch, err := parseChannel(m["ch"])
		if err != nil {
			return step, errAt(line, "%v", err)
		}
		model, err := buildLinkModel(m)
		if err != nil {
			return step, errAt(line, "%v", err)
		}
		step.Do = func(sc *scene.Scene) error { return sc.SetLinkModel(ch, model) }
	case "pause":
		step.Do = func(sc *scene.Scene) error { sc.SetPaused(true); return nil }
	case "resume":
		step.Do = func(sc *scene.Scene) error { sc.SetPaused(false); return nil }
	default:
		return step, errAt(line, "unknown operation %q", op)
	}
	return step, nil
}

func arg0(args []string) string {
	if len(args) == 0 {
		return ""
	}
	return args[0]
}

func parseID(s string) (radio.NodeID, error) {
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad node id %q", s)
	}
	return radio.NodeID(v), nil
}

func parseChannel(s string) (radio.ChannelID, error) {
	if s == "" {
		return 0, fmt.Errorf("missing ch=")
	}
	v, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bad channel %q", s)
	}
	return radio.ChannelID(v), nil
}

func parsePoint(s string) (geom.Vec2, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return geom.Vec2{}, fmt.Errorf("bad point %q (want x,y)", s)
	}
	x, err1 := strconv.ParseFloat(parts[0], 64)
	y, err2 := strconv.ParseFloat(parts[1], 64)
	if err1 != nil || err2 != nil {
		return geom.Vec2{}, fmt.Errorf("bad point %q", s)
	}
	return geom.V(x, y), nil
}

// parseRadios consumes repeated "radio ch=N range=R" groups.
func parseRadios(fields []string) ([]radio.Radio, error) {
	var out []radio.Radio
	i := 0
	for i < len(fields) {
		if fields[i] != "radio" {
			return nil, fmt.Errorf("expected 'radio', got %q", fields[i])
		}
		if i+2 >= len(fields) {
			return nil, fmt.Errorf("radio wants ch= and range=")
		}
		m, rest := kv(fields[i+1 : i+3])
		if len(rest) != 0 {
			return nil, fmt.Errorf("radio wants key=value, got %v", rest)
		}
		ch, err := parseChannel(m["ch"])
		if err != nil {
			return nil, err
		}
		r, err := strconv.ParseFloat(m["range"], 64)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("bad radio range %q", m["range"])
		}
		out = append(out, radio.Radio{Channel: ch, Range: r})
		i += 3
	}
	return out, nil
}

func (s *Script) parseMobility(line int, kind string, args []string) (mobility.Model, error) {
	m, rest := kv(args)
	if len(rest) != 0 {
		return nil, errAt(line, "mobility takes key=value arguments, got %v", rest)
	}
	f := func(key string, def float64) (float64, error) {
		v, ok := m[key]
		if !ok {
			if def >= 0 {
				return def, nil
			}
			return 0, fmt.Errorf("missing %s=", key)
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("bad %s=%q", key, v)
		}
		return x, nil
	}
	switch kind {
	case "static":
		return nil, nil
	case "linear":
		dir, err := f("dir", -1)
		if err != nil {
			return nil, errAt(line, "%v", err)
		}
		speed, err := f("speed", -1)
		if err != nil {
			return nil, errAt(line, "%v", err)
		}
		return mobility.Linear(dir, speed, s.Region), nil
	case "walk":
		min, err := f("min", -1)
		if err != nil {
			return nil, errAt(line, "%v", err)
		}
		max, err := f("max", -1)
		if err != nil {
			return nil, errAt(line, "%v", err)
		}
		step, err := f("step", 2)
		if err != nil {
			return nil, errAt(line, "%v", err)
		}
		return mobility.RandomWalk(min, max, step, s.Region), nil
	case "waypoint":
		min, err := f("min", -1)
		if err != nil {
			return nil, errAt(line, "%v", err)
		}
		max, err := f("max", -1)
		if err != nil {
			return nil, errAt(line, "%v", err)
		}
		pause, err := f("pause", 0)
		if err != nil {
			return nil, errAt(line, "%v", err)
		}
		return mobility.Waypoint{
			MinSpeed: min, MaxSpeed: max,
			Pause:  mobility.Constant(pause),
			Region: s.Region,
		}, nil
	case "gaussmarkov", "gm":
		alpha, err := f("alpha", 0.75)
		if err != nil {
			return nil, errAt(line, "%v", err)
		}
		speed, err := f("speed", -1)
		if err != nil {
			return nil, errAt(line, "%v", err)
		}
		sstd, err := f("sstd", speed/4)
		if err != nil {
			return nil, errAt(line, "%v", err)
		}
		dstd, err := f("dstd", 30)
		if err != nil {
			return nil, errAt(line, "%v", err)
		}
		step, err := f("step", 1)
		if err != nil {
			return nil, errAt(line, "%v", err)
		}
		gm := mobility.GaussMarkov{
			Alpha: alpha, MeanSpeed: speed, SpeedStd: sstd,
			DirStd: dstd, Step: step, Region: s.Region,
		}
		if err := gm.Validate(); err != nil {
			return nil, errAt(line, "%v", err)
		}
		return gm, nil
	default:
		return nil, errAt(line, "unknown mobility model %q", kind)
	}
}

// buildLinkModel assembles a linkmodel.Model from key=value params,
// defaulting each component sensibly.
func buildLinkModel(m map[string]string) (linkmodel.Model, error) {
	get := func(key string, def float64) (float64, bool, error) {
		v, ok := m[key]
		if !ok {
			return def, false, nil
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, false, fmt.Errorf("bad %s=%q", key, v)
		}
		return x, true, nil
	}
	model := linkmodel.Default()
	p0, okP0, err := get("p0", 0)
	if err != nil {
		return model, err
	}
	p1, okP1, err := get("p1", p0)
	if err != nil {
		return model, err
	}
	d0, _, err := get("d0", 0)
	if err != nil {
		return model, err
	}
	r, okR, err := get("r", 200)
	if err != nil {
		return model, err
	}
	if okP0 || okP1 {
		loss, err := linkmodel.NewDistanceLoss(p0, p1, d0, r)
		if err != nil {
			return model, err
		}
		model.Loss = loss
	}
	bwMax, okMax, err := get("bwmax", 11e6)
	if err != nil {
		return model, err
	}
	bwMin, okMin, err := get("bwmin", bwMax)
	if err != nil {
		return model, err
	}
	if okMax || okMin {
		if !okR {
			r = 200
		}
		bw, err := linkmodel.NewGaussianBandwidth(bwMax, bwMin, r)
		if err != nil {
			return model, err
		}
		model.Bandwidth = bw
	}
	if ms, ok, err := get("delayms", 1); err != nil {
		return model, err
	} else if ok {
		model.Delay = linkmodel.ConstantDelay{D: time.Duration(ms * float64(time.Millisecond))}
	}
	return model, nil
}

// Run executes the script against a scene, pacing steps with the
// clock. It returns after the `end` time or on stop/step error.
func (sp *Script) Run(sc *scene.Scene, clk vclock.WaitClock, stop <-chan struct{}) error {
	w := vclock.NewWaiter(clk)
	if stop != nil {
		done, exited := make(chan struct{}), make(chan struct{})
		defer func() { close(done); <-exited }()
		go func() { // turns stop into a Wake
			defer close(exited)
			select {
			case <-stop:
				w.Wake()
			case <-done:
			}
		}()
	}
	for _, st := range sp.Steps {
		if !w.Wait(st.At) {
			return fmt.Errorf("script: stopped before step at line %d", st.Line)
		}
		if err := st.Do(sc); err != nil {
			return fmt.Errorf("script: line %d (%s): %w", st.Line, st.Desc, err)
		}
	}
	if !w.Wait(sp.End) {
		return fmt.Errorf("script: stopped before end")
	}
	return nil
}
