// Command poemctl is the operator console: it sends live scene commands
// to a running poemd — the paper's "friendly visual interaction of
// topology control" without the mouse.
//
// One-shot:
//
//	poemctl -server 127.0.0.1:7001 add 1 pos 100,100 radio ch=1 range=200
//	poemctl -server 127.0.0.1:7001 show
//
// Continuous counters (polls `stats`, the server's metrics, and prints
// per-second rates):
//
//	poemctl -server 127.0.0.1:7001 watch
//
// Interactive (reads commands from stdin):
//
//	poemctl -server 127.0.0.1:7001
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs/fidelity"
)

func main() {
	server := flag.String("server", "127.0.0.1:7001", "poemd control address")
	interval := flag.Duration("interval", time.Second, "watch poll interval")
	flag.Parse()

	conn, err := net.Dial("tcp", *server)
	if err != nil {
		log.Fatalf("poemctl: %v", err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	// exec sends one command and collects the reply lines up to the "."
	// terminator; ok is false when the connection died.
	exec := func(cmd string) ([]string, bool) {
		if _, err := fmt.Fprintln(conn, cmd); err != nil {
			log.Fatalf("poemctl: %v", err)
		}
		var lines []string
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return lines, false
			}
			line = strings.TrimRight(line, "\n")
			if line == "." {
				return lines, true
			}
			lines = append(lines, line)
		}
	}
	send := func(cmd string) bool {
		lines, ok := exec(cmd)
		for _, l := range lines {
			fmt.Println(l)
		}
		return ok
	}

	if args := flag.Args(); len(args) > 0 {
		if args[0] == "watch" {
			watch(exec, *interval)
			return
		}
		send(strings.Join(args, " "))
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("poemctl: interactive mode (quit to exit)")
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return
		}
		cmd := strings.TrimSpace(sc.Text())
		if cmd == "" {
			continue
		}
		if !send(cmd) {
			return
		}
		if cmd == "quit" {
			return
		}
	}
}

// watch polls the stats verb — the server's metrics registry in the
// Prometheus text format — and prints one report per poll: `top` for a
// running emulation.
func watch(exec func(string) ([]string, bool), interval time.Duration) {
	var prev map[string]float64
	var prevAt time.Time
	for {
		lines, ok := exec("stats")
		if len(lines) > 0 && strings.HasPrefix(lines[0], "err:") {
			fmt.Println(lines[0])
			return
		}
		cur, now := parseSamples(lines), time.Now()
		if prev != nil {
			report(os.Stdout, now, now.Sub(prevAt).Seconds(), prev, cur)
		}
		prev, prevAt = cur, now
		if !ok {
			return
		}
		time.Sleep(interval)
	}
}

// parseSamples maps each sample line of an exposition to its value,
// keyed by the series name with its labels; comments are skipped.
func parseSamples(lines []string) map[string]float64 {
	out := make(map[string]float64)
	for _, l := range lines {
		i := strings.LastIndexByte(l, ' ')
		if i < 0 || strings.HasPrefix(l, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(l[i+1:], 64); err == nil {
			out[l[:i]] = v
		}
	}
	return out
}

// report writes one poll: the session and schedule gauges, the rates
// of six counters over dt seconds and the server's health; then each
// stage histogram that has samples, with its quantile gauges; then every
// shard that is not keeping real time.
func report(w io.Writer, now time.Time, dt float64, prev, cur map[string]float64) {
	fmt.Fprintf(w, "%s clients=%.0f sched=%.0f", now.Format("15:04:05"), cur["poem_clients"], cur["poem_scheduled"])
	for _, c := range [...]struct{ label, name string }{
		{"recv", "poem_received_total"}, {"fwd", "poem_forwarded_total"}, {"drop", "poem_dropped_total"},
		{"noroute", "poem_noroute_total"}, {"qdrop", "poem_queue_drops_total"}, {"clamp", "poem_stamp_clamped_total"},
	} {
		fmt.Fprintf(w, " %s/s=%.0f", c.label, (cur[c.name]-prev[c.name])/dt)
	}
	fmt.Fprintf(w, " health=%v\n", fidelity.State(cur["poem_health"]))
	for _, h := range [...]struct{ label, name string }{
		{"ingest", "poem_ingest_ns"}, {"dispatch", "poem_dispatch_ns"}, {"enqueue", "poem_enqueue_ns"},
		{"send", "poem_send_ns"}, {"deliverlag", "poem_deliver_lag_ns"},
	} {
		if n := cur[h.name+"_count"]; n > 0 {
			fmt.Fprintf(w, "         %s samples=%.0f p50=%v p95=%v p99=%v\n", h.label, n, time.Duration(cur[h.name+"_p50"]),
				time.Duration(cur[h.name+"_p95"]), time.Duration(cur[h.name+"_p99"]))
		}
	}
	for i := 0; ; i++ {
		st, ok := cur[`poem_shard_health{shard="`+strconv.Itoa(i)+`"}`]
		if !ok {
			return
		}
		if st != 0 {
			fmt.Fprintf(w, "         shard %d health=%v\n", i, fidelity.State(st))
		}
	}
}
