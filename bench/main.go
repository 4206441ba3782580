// Command bench measures PoEm end to end and layer by layer.
//
//	go -C bench run . [-workload name] [-seed n] [-seconds n]   every workload, untraced then traced
//	go -C bench run . -workload name -trace 0|1                 one pass, result as one JSON line
//	go -C bench run . -compare a.json b.json                    judge b against a with the bounds
//	go -C bench run . -quick                                    tiny in-process smoke of everything
//
// Each pass over a workload runs in a fresh child process (a re-exec of
// this binary), so RSS, CPU time and heap state never leak from one
// measurement into the next. See README.md for what is measured and why.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

var processStart = time.Now()

const (
	passUntraced = "untraced"
	passTraced   = "traced"
	passSetup    = "setup"
	passSoak     = "soak"

	runSeconds    = 12 // measured windows of the untraced pass: BENCHMARK.json's run_seconds
	tracedWindows = 5  // the traced pass measures this many windows at most
	refWindows    = 3  // untraced reference taken beside a lone traced pass
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int // 0 untraced pass, 1 traced pass, -1 both
	quick    bool
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: sender placement, payload sizes, operator ops, server and scene dice")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "measured one-second windows of the untraced pass")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced pass only, 1: traced pass only; prints one JSON result line (default: both passes, full report)")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: tiny populations, 2×200 ms windows, everything in this process")
	flag.StringVar(&o.out, "out", "out", "directory for result.json and trace-<workload>.json")
	compare := flag.Bool("compare", false, "compare two result.json files: -compare a.json b.json")
	child := flag.String("child", "", "internal: run one pass in this process (untraced, traced, setup), or soak")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as this binary defines it")
	flag.Parse()

	var err error
	switch {
	case *spec:
		_, err = os.Stdout.Write(benchmarkJSON(o.seconds))
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: -compare a.json b.json")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *child == passSoak:
		err = soak()
	case *child != "":
		err = childMain(o, *child)
	default:
		err = parentMain(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// benchmarkJSON renders the benchmark's contract file from spec.go, the
// one place the metric and workload names are written down.
func benchmarkJSON(seconds int) []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []named      `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: seconds,
		EndToEnd: endToEnd, PerLayer: perLayer}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.Name, w.Why})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return append(b, '\n')
}

// childMain runs one pass and prints its result as the last stdout line.
func childMain(o options, pass string) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	cfg := runConfig{W: w, T: fullTiming(o.seconds), Seed: o.seed, Start: processStart,
		Traced: pass == passTraced, SetupOnly: pass == passSetup}
	if cfg.Traced {
		cfg.TraceOut = filepath.Join(o.out, "trace-"+w.Name+".json")
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn runs one pass in a fresh child. A child that fails or hangs is
// reported on stderr in full and the pass is tried once more: one
// trunk_tcp set-up in about two thousand hung for a reason not yet found
// (README, Findings), and the driver's 114 runs hold hundreds of them.
func spawn(o options, w workload, pass string, windows int) (*passResult, error) {
	res, err := spawnOnce(o, w, pass, windows)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\nbench: trying the %s pass once more\n", err, pass)
		res, err = spawnOnce(o, w, pass, windows)
	}
	return res, err
}

// spawnOnce runs the child under a watchdog of three times the pass's
// nominal duration, and returns the child's stderr in the error if it
// fails.
func spawnOnce(o options, w workload, pass string, windows int) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	nominal := 4*time.Second + time.Duration(w.Side*w.Side)*300*time.Microsecond
	if pass != passSetup {
		nominal += 2*time.Second + time.Duration(windows)*time.Second
	}
	if pass == passTraced {
		nominal += 15 * time.Second // layer probes and the gateway probe
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*nominal)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", pass, "-workload", w.Name,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(windows), "-out", o.out)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	// The watchdog asks for a goroutine dump before it kills: what the
	// child hung on is then in the stderr shown below.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGQUIT) }
	cmd.WaitDelay = 2 * time.Second
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("watchdog: stopped after %v (3× nominal)", 3*nominal)
		}
		return nil, fmt.Errorf("%s %s pass: %w\n--- child stderr ---\n%s", w.Name, pass, err, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	res := &passResult{}
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("%s %s pass: unreadable result: %w\n--- child stderr ---\n%s", w.Name, pass, err, stderr.String())
	}
	return res, nil
}

// keepBusy keeps the CPUs from going idle while an open-loop workload is
// measured, and returns the function that ends that: one spinning
// process per CPU at the lowest priority, which any benchmark thread
// preempts at once. An idle virtual CPU halts, and how long the
// hypervisor takes to wake it sits on every timer and goroutine wake-up
// and wanders from minute to minute; lateness_p99_us then reads 1.4 ms
// or 3.8 ms on the same inputs. The closed loops keep the CPUs busy
// themselves and measured steadier without (README, "The host's timer
// floor").
func keepBusy(w workload) (stop func(), err error) {
	if w.Rate == 0 {
		return func() {}, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var cmds []*exec.Cmd
	var pipes []io.Closer
	stop = func() {
		for _, p := range pipes {
			p.Close() // a soaker exits when its stdin closes
		}
		for _, c := range cmds {
			c.Wait()
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(exe, "-child", passSoak)
		in, err := cmd.StdinPipe()
		if err != nil {
			stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			in.Close()
			stop()
			return nil, err
		}
		cmds, pipes = append(cmds, cmd), append(pipes, in)
	}
	return stop, nil
}

// soak is a soaker process: it spins at the lowest priority until its
// stdin closes, which also happens if the parent dies.
func soak() error {
	// On Linux a nice value belongs to the thread: stay on the one it is
	// set for.
	runtime.LockOSThread()
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
		return err
	}
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	for {
	}
}

// measureUntraced is the end-to-end pass: the rig is set up SetupRuns
// times, each in its own process, for the setup_s median; the last of
// those processes goes on to warm up and measure.
func measureUntraced(o options, w workload, windows int) (*passResult, error) {
	stop, err := keepBusy(w)
	if err != nil {
		return nil, err
	}
	defer stop()
	var setups []float64
	for i := 1; i < w.SetupRuns; i++ {
		r, err := spawn(o, w, passSetup, windows)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.Metrics["setup_s"])
	}
	res, err := spawn(o, w, passUntraced, windows)
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = median(append(setups, res.Metrics["setup_s"]))
	return res, nil
}

// measureTraced is the per-layer pass. ref and unicastRef are untraced
// results of this workload and of unicast_tcp to compare against; a
// missing one is taken here as a short reference run.
func measureTraced(o options, w workload, windows int, ref, unicastRef *passResult) (*passResult, error) {
	stop, err := keepBusy(w)
	if err != nil {
		return nil, err
	}
	defer stop()
	if ref == nil {
		if ref, err = spawn(o, w, passUntraced, refWindows); err != nil {
			return nil, err
		}
	}
	if w.Trunk && unicastRef == nil {
		u, _ := findWorkload("unicast_tcp")
		if unicastRef, err = spawn(o, u, passUntraced, refWindows); err != nil {
			return nil, err
		}
	}
	res, err := spawn(o, w, passTraced, min(windows, tracedWindows))
	if err != nil {
		return nil, err
	}
	finishTraced(res, ref, unicastRef)
	return res, nil
}

// finishTraced adds the two figures that need a second run to compare
// with: what tracing costs, and what federation costs.
func finishTraced(res, ref, unicastRef *passResult) {
	res.Metrics["trace.overhead_ratio"] = ratio(res.Metrics["deliveries_per_s"], ref.Metrics["deliveries_per_s"])
	if unicastRef != nil {
		res.Metrics["cluster.cpu_us_per_delivery_delta"] = ref.Metrics["cpu_us_per_delivery"] - unicastRef.Metrics["cpu_us_per_delivery"]
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's entry in result.json.
type workloadResult struct {
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Correct   bool                   `json:"correct"`
	Checks    []check                `json:"checks"`
}

type resultFile struct {
	Host      hostFacts                  `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Quick     bool                       `json:"quick,omitempty"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func pick(specs []metricSpec, from map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{Value: from[s.Name], Unit: s.Unit}
	}
	return out
}

func (wr *workloadResult) absorb(p *passResult) {
	wr.Checks = append(wr.Checks, p.Checks...)
	wr.Correct = wr.Correct && p.correct()
	if p.Traced {
		wr.PerLayer = pick(perLayer, p.Metrics)
		return
	}
	wr.EndToEnd = pick(endToEnd, p.Metrics)
	wr.EndToEnd["failed_ratio"] = metricValue{Value: p.Metrics["failed_ratio"], Unit: "ratio"}
	wr.Attempted, wr.Failed = p.Attempted, p.Failed
}

func printMetrics(name string, specs []metricSpec, vals map[string]metricValue) {
	for _, s := range specs {
		fmt.Printf("%-16s %-36s %16.4f %s\n", name, s.Name, vals[s.Name].Value, s.Unit)
	}
}

func parentMain(o options) error {
	host := readHost()
	// The load average is recorded but says little here: a run that
	// follows another inherits its load for a minute.
	if host.Busy > 0.2 {
		fmt.Fprintf(os.Stderr, "bench: warning: the host's CPUs were %.0f%% busy before the run began (1-minute load average %.2f); another process will distort the figures\n", 100*host.Busy, host.Load1)
	}
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	if o.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if o.trace >= 0 && !o.quick {
		if len(selected) != 1 {
			return errors.New("-trace 0|1 needs -workload")
		}
		return singlePass(o, selected[0])
	}

	file := &resultFile{Host: host, Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Workloads: map[string]*workloadResult{}}
	untraced := map[string]*passResult{}
	for _, w := range selected {
		wr := &workloadResult{Correct: true}
		file.Workloads[w.Name] = wr
		var u, t *passResult
		var err error
		if o.quick {
			u, t, err = quickPasses(o, w, untraced["unicast_tcp"])
		} else {
			if u, err = measureUntraced(o, w, o.seconds); err == nil {
				t, err = measureTraced(o, w, o.seconds, u, untraced["unicast_tcp"])
			}
		}
		if err != nil {
			return err
		}
		untraced[w.Name] = u
		wr.absorb(u)
		wr.absorb(t)
		printMetrics(w.Name, endToEnd, wr.EndToEnd)
		fmt.Printf("%-16s %-36s %16.6f %s  (%d failed of %d attempted)\n", w.Name, "failed_ratio",
			wr.EndToEnd["failed_ratio"].Value, "ratio", wr.Failed, wr.Attempted)
		printMetrics(w.Name, perLayer, wr.PerLayer)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, "result.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	bad := 0
	for _, w := range selected {
		for _, c := range file.Workloads[w.Name].Checks {
			if !c.OK {
				bad++
				fmt.Fprintf(os.Stderr, "bench: %s: check %s FAILED: %s\n", w.Name, c.Name, c.Detail)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d correctness checks failed", bad)
	}
	fmt.Printf("all correctness checks passed; wrote %s\n", filepath.Join(o.out, "result.json"))
	return nil
}

// quickPasses runs both passes of a shrunken workload in this process.
func quickPasses(o options, w workload, unicastRef *passResult) (u, t *passResult, err error) {
	qw, qt := quick(w)
	if u, err = runWorkload(runConfig{W: qw, T: qt, Seed: o.seed, Start: time.Now()}); err != nil {
		return nil, nil, err
	}
	t, err = runWorkload(runConfig{W: qw, T: qt, Seed: o.seed, Start: time.Now(), Traced: true,
		TraceOut: filepath.Join(o.out, "trace-"+w.Name+".json")})
	if err != nil {
		return nil, nil, err
	}
	if !w.Trunk {
		unicastRef = nil
	}
	finishTraced(t, u, unicastRef)
	return u, t, nil
}

// singlePass serves the driver's contract: one workload, one pass, and
// as the last line of stdout one JSON object with exactly the keys
// correct, attempted, failed and metrics.
func singlePass(o options, w workload) error {
	var res *passResult
	var err error
	specs := endToEnd
	if o.trace == 0 {
		res, err = measureUntraced(o, w, o.seconds)
	} else {
		specs = perLayer
		res, err = measureTraced(o, w, o.seconds, nil, nil)
	}
	if err != nil {
		return err
	}
	vals := pick(specs, res.Metrics)
	printMetrics(w.Name, specs, vals)
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "bench: %s: check %s FAILED: %s\n", w.Name, c.Name, c.Detail)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct(), max(res.Attempted, 1), res.Failed, vals})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.correct() {
		return errors.New("correctness checks failed")
	}
	return nil
}
