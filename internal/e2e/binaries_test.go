package e2e

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildBinaries compiles the cmd/ executables once per test binary.
var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "poem-bins")
		if err != nil {
			buildErr = err
			return
		}
		binDir = dir
		for _, name := range []string{"poemd", "poemctl", "poem-client", "poem-replay", "poem-exp", "poem-gateway"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name), "repro/cmd/"+name)
			cmd.Dir = repoRoot(t)
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = fmt.Errorf("build %s: %v\n%s", name, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		if dir == filepath.Dir(dir) {
			t.Fatal("go.mod not found above working directory")
		}
	}
}

// freePort asks the kernel for an unused TCP port.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// start runs one of the built binaries until the test ends, logging its
// output if the test failed.
func start(t *testing.T, name string, args ...string) (*exec.Cmd, *syncBuffer) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), name), args...)
	out := new(syncBuffer)
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stop(cmd)
		if t.Failed() {
			t.Logf("%s log:\n%s", name, out.String())
		}
	})
	return cmd, out
}

// stop interrupts cmd and waits for it, killing it if it has not exited
// 5 s later. A second stop returns at once.
func stop(cmd *exec.Cmd) {
	cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		<-done
	}
}

// waitListening waits up to 10 s for addr to accept a connection.
func waitListening(t *testing.T, addr string, log *syncBuffer) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if conn, err := net.Dial("tcp", addr); err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never came up:\n%s", addr, log.String())
		}
	}
}

// TestBinariesEndToEnd runs the shipped executables the way the README
// shows: poemd up, scene built via poemctl, two poem-client instances
// exchanging a routed message, recording replayed with poem-replay.
func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bins := binaries(t)
	clientAddr := freePort(t)
	controlAddr := freePort(t)
	recPath := filepath.Join(t.TempDir(), "run.poem")

	daemon, dlog := start(t, "poemd", "-listen", clientAddr, "-control", controlAddr,
		"-record", recPath, "-scale", "4")
	ctl := func(args ...string) string {
		out, err := exec.Command(filepath.Join(bins, "poemctl"),
			append([]string{"-server", controlAddr}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("poemctl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	waitListening(t, controlAddr, dlog)

	if out := ctl("add", "1", "pos", "100,100", "radio", "ch=1", "range=200"); !strings.Contains(out, "ok") {
		t.Fatalf("add 1: %q", out)
	}
	if out := ctl("add", "2", "pos", "220,100", "radio", "ch=1", "range=200"); !strings.Contains(out, "ok") {
		t.Fatalf("add 2: %q", out)
	}
	if out := ctl("nodes"); !strings.Contains(out, "VMN1") || !strings.Contains(out, "VMN2") {
		t.Fatalf("nodes: %q", out)
	}

	// Two protocol clients; VMN1 sends to VMN2 once routes converge. A
	// goroutine pumps each client's stdout into a channel so polling
	// never blocks on a quiet pipe.
	type client struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
		lines chan string
		errs  *bytes.Buffer
	}
	startClient := func(id string) *client {
		c := exec.Command(filepath.Join(bins, "poem-client"),
			"-server", clientAddr, "-id", id, "-proto", "hybrid", "-beacon", "100ms")
		stdin, err := c.StdinPipe()
		if err != nil {
			t.Fatal(err)
		}
		stdout, err := c.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		var errlog bytes.Buffer
		c.Stderr = &errlog
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		lines := make(chan string, 1024)
		go func() {
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				select {
				case lines <- sc.Text():
				default:
				}
			}
			close(lines)
		}()
		return &client{cmd: c, stdin: stdin, lines: lines, errs: &errlog}
	}
	// sawLine polls: send cmd, then watch the output stream for want.
	sawLine := func(c *client, cmd, want string, timeout time.Duration) bool {
		end := time.Now().Add(timeout)
		for time.Now().Before(end) {
			fmt.Fprintln(c.stdin, cmd)
			drain := time.After(200 * time.Millisecond)
			for {
				select {
				case line, ok := <-c.lines:
					if !ok {
						return false
					}
					if strings.Contains(line, want) {
						return true
					}
					continue
				case <-drain:
				}
				break
			}
		}
		return false
	}
	c2 := startClient("2")
	defer func() { c2.stdin.Close(); c2.cmd.Wait() }()
	c1 := startClient("1")
	defer func() { c1.stdin.Close(); c1.cmd.Wait() }()

	if !sawLine(c1, "table", "2 -> 2", 15*time.Second) {
		t.Fatalf("VMN1 never learned VMN2\nclient1 stderr:\n%s\nclient2 stderr:\n%s",
			c1.errs.String(), c2.errs.String())
	}
	fmt.Fprintln(c1.stdin, "send 2 hello from binary test")
	if !sawLine(c2, "deliveries", "hello from binary test", 15*time.Second) {
		t.Fatalf("message never delivered\nclient2 stderr:\n%s", c2.errs.String())
	}
	in1, in2 := c1.stdin, c2.stdin

	// Quit the clients, stop the daemon, replay the recording.
	fmt.Fprintln(in1, "quit")
	fmt.Fprintln(in2, "quit")
	c1.cmd.Wait()
	c2.cmd.Wait()
	stop(daemon)
	if !strings.Contains(dlog.String(), "recording: ") {
		t.Errorf("poemd printed no recording line:\n%s", dlog.String())
	}

	out, err := exec.Command(filepath.Join(bins, "poem-replay"),
		"-in", recPath, "-step", "2s", "-w", "40", "-h", "8").CombinedOutput()
	if err != nil {
		t.Fatalf("poem-replay: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "activity:") || !strings.Contains(string(out), "nodes=") {
		t.Errorf("replay output:\n%s", out)
	}
	// The all-flows summary runs off the same recording and counts the
	// delivered message.
	out, err = exec.Command(filepath.Join(bins, "poem-replay"),
		"-in", recPath, "-flow", "-2").CombinedOutput()
	if err != nil {
		t.Fatalf("poem-replay -flow -2: %v\n%s", err, out)
	}
	delivered := 0
	for _, line := range strings.Split(string(out), "\n") {
		var flow, sent, got int
		if n, _ := fmt.Sscanf(line, "flow %d: sent=%d delivered=%d", &flow, &sent, &got); n == 3 && got > delivered {
			delivered = got
		}
	}
	if delivered < 1 {
		t.Errorf("no flow line with a delivery in the flow summary:\n%s", out)
	}
}

// TestPoemExpBinary smoke-runs the experiment CLI's cheap experiments.
func TestPoemExpBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bins := binaries(t)
	for _, exp := range []string{"table1", "clocksync", "linkcurves", "neightable"} {
		out, err := exec.Command(filepath.Join(bins, "poem-exp"), exp).CombinedOutput()
		if err != nil {
			t.Fatalf("poem-exp %s: %v\n%s", exp, err, out)
		}
		if len(out) == 0 {
			t.Errorf("poem-exp %s produced nothing", exp)
		}
	}
}

// TestPoemGatewayBinary smoke-runs the standalone gateway binary
// against a live poemd: scene built over poemctl, the gateway's port
// map bridging two real UDP sockets through the emulated link, with
// the backpressure gate fed by poemd's real /healthz endpoint.
func TestPoemGatewayBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bins := binaries(t)
	clientAddr := freePort(t)
	controlAddr := freePort(t)
	debugAddr := freePort(t)

	_, dlog := start(t, "poemd", "-listen", clientAddr, "-control", controlAddr,
		"-debug", debugAddr, "-scale", "4")
	waitListening(t, controlAddr, dlog)
	for _, args := range [][]string{
		{"add", "1", "pos", "100,100", "radio", "ch=1", "range=200"},
		{"add", "2", "pos", "220,100", "radio", "ch=1", "range=200"},
	} {
		out, err := exec.Command(filepath.Join(bins, "poemctl"),
			append([]string{"-server", controlAddr}, args...)...).CombinedOutput()
		if err != nil || !strings.Contains(string(out), "ok") {
			t.Fatalf("poemctl %v: %v %q", args, err, out)
		}
	}

	// The sink: where traffic addressed to VMN 2 leaves the emulation.
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	mapPath := filepath.Join(t.TempDir(), "gateway.map")
	portMap := "map listen=127.0.0.1:0 node=1 ch=1 dst=2\n" +
		"map listen=127.0.0.1:0 node=2 ch=1 dst=1 peer=" + sink.LocalAddr().String() + "\n"
	if err := os.WriteFile(mapPath, []byte(portMap), 0o644); err != nil {
		t.Fatal(err)
	}

	_, glog := start(t, "poem-gateway", "-map", mapPath, "-server", clientAddr, "-scale", "4",
		"-healthz", "http://"+debugAddr+"/healthz", "-poll", "100ms")

	// The binary logs each binding's bound socket; node 1's is where the
	// "application" sends its datagrams.
	addrRe := regexp.MustCompile(`poem-gateway: ([0-9.]+:[0-9]+) ↔ node 1 `)
	var gwAddr string
	deadline := time.Now().Add(10 * time.Second)
	for gwAddr == "" {
		if m := addrRe.FindStringSubmatch(glog.String()); m != nil {
			gwAddr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("gateway never logged its binding:\n%s", glog.String())
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}

	app, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	dst, err := net.ResolveUDPAddr("udp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	// UDP across process startup is lossy-by-design; retry the probe
	// until the far socket answers.
	sink.SetReadDeadline(time.Now().Add(15 * time.Second))
	buf := make([]byte, 2048)
	for tries := 0; ; tries++ {
		if _, err := app.WriteTo([]byte("gw-binary-hello"), dst); err != nil {
			t.Fatal(err)
		}
		sink.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		n, _, err := sink.ReadFrom(buf)
		if err == nil {
			if got := string(buf[:n]); got != "gw-binary-hello" {
				t.Fatalf("sink received %q", got)
			}
			break
		}
		if tries > 40 {
			t.Fatalf("datagram never crossed the emulation:\ngateway log:\n%s\npoemd log:\n%s",
				glog.String(), dlog.String())
		}
	}
}

// metricFamilies is every metric family poemd registers.
var metricFamilies = strings.Fields(`
	poem_received_total poem_forwarded_total poem_dropped_total poem_noroute_total
	poem_queue_drops_total poem_stamp_clamped_total poem_clients poem_scheduled
	poem_clock_seconds poem_ingest_ns poem_dispatch_ns poem_enqueue_ns poem_send_ns
	poem_deliver_lag_ns poem_scene_nodes poem_scene_view_rebuilds_total poem_scene_tick_ns
	poem_scene_rows_republished_total poem_record_packets_total poem_record_scenes_total
	poem_record_batch_commits_total poem_record_log_dropped_total poem_health
	poem_health_breaches_total poem_flight_recorder_events_total poem_shard_health
	poem_shard_deadline_miss_total poem_shard_deadline_lag_ns poem_shard_deadline_watermark_ns
	poem_shard_deadline_drift_ns poem_cluster_remote_entries_total
	poem_cluster_trunk_dropped_total poem_cluster_trunk_pending_entries
	poem_cluster_recv_entries_total poem_cluster_staleness_last_ns poem_cluster_peer_health
	poem_cluster_applied_seq poem_cluster_scene_snapshots_total poem_cluster_scene_divergence
	poem_cluster_info poem_cluster_self poem_cluster_coordinator poem_cluster_peer_trunk_up
	poem_cluster_peer_trunk_entries_total poem_cluster_peer_trunk_frames_total
	poem_cluster_peer_trunk_dropped_total poem_cluster_peer_trunk_pending_entries
	poem_cluster_peer_trunk_reconnects_total poem_cluster_peer_trunk_dial_failures_total
	poem_cluster_peer_digest_diverged poem_shard_queue_depth poem_shard_fire_batches_total`)

// TestMetricsSmoke runs a two-peer federation of poemd, the first with
// -debug, and checks its operator surface: a sample of every registered
// family on /metrics and from `poemctl stats` (the same registry), no
// NaN in either, and the shape of /trace (the sampled packet
// lifecycles), /healthz and /fidelity/trace.
func TestMetricsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	peers := []string{freePort(t), freePort(t)}
	control, debug := freePort(t), freePort(t)
	_, dlog := start(t, "poemd", "-listen", peers[0], "-control", control, "-debug", debug,
		"-peer", strings.Join(peers, ","), "-peer-self", "0")
	start(t, "poemd", "-listen", peers[1], "-control", freePort(t),
		"-peer", strings.Join(peers, ","), "-peer-self", "1")
	waitListening(t, debug, dlog)
	waitListening(t, control, dlog)
	get := func(path string) string {
		resp, err := http.Get("http://" + debug + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s %v\n%s", path, resp.Status, err, body)
		}
		return string(body)
	}
	stats, err := exec.Command(filepath.Join(binaries(t), "poemctl"), "-server", control, "stats").CombinedOutput()
	if err != nil {
		t.Fatalf("poemctl stats: %v\n%s", err, stats)
	}
	for src, text := range map[string]string{"/metrics": get("/metrics"), "poemctl stats": string(stats)} {
		for _, name := range metricFamilies {
			if !strings.HasPrefix(text, name) && !strings.Contains(text, "\n"+name) {
				t.Errorf("%s: missing metric %s", src, name)
			}
		}
		if strings.Contains(text, "NaN") {
			t.Errorf("%s renders a NaN value:\n%s", src, text)
		}
	}
	if trace := get("/trace"); !strings.HasPrefix(trace, "[") {
		t.Errorf("/trace did not answer a JSON array: %s", trace)
	}
	if health := get("/healthz"); !regexp.MustCompile(`(?s)"state".*"shards"`).MatchString(health) {
		t.Errorf("/healthz did not answer a health report: %s", health)
	}
	if fid := get("/fidelity/trace"); !strings.Contains(fid, `"traceEvents"`) {
		t.Errorf("/fidelity/trace did not answer tracing JSON: %s", fid)
	}
}

// syncBuffer is a bytes.Buffer safe for concurrent Write (the child
// process) and String (the polling test).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
