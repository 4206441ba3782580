package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// traceEvent is one complete ("X") event of the chrome://tracing JSON
// format; times are microseconds on the benchmark clock.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes the spans kept in memory during the traced pass.
// Each sampled packet (one in 64 per flow, id = flow/seq) has three:
// client.send [send call start, return], sched.wait [client stamp,
// scanner fire; the due time is an argument], core.deliver [scanner
// fire, client callback]. The three abut, so a packet's row reads left
// to right as its critical path.
func writeTrace(path string, w workload, m *meter) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close() // error paths; the success path checks Close below
	bw := bufio.NewWriter(out)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":%q},\"traceEvents\":[\n", w.Name)
	enc := json.NewEncoder(bw)
	first := true
	emit := func(ev traceEvent) error {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		return enc.Encode(ev) // Encode ends each event with a newline
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for f := range m.spans {
		for i := range m.spans[f] {
			s := &m.spans[f][i]
			seq, t0, t1 := s.seq.Load(), s.sendStart.Load(), s.sendEnd.Load()
			stamp, due, fire, arr := s.stamp.Load(), s.due.Load(), s.fire.Load(), s.arr.Load()
			if seq == 0 || t1 == 0 || fire == 0 || arr == 0 {
				continue // never used, or the packet was lost to the link model
			}
			id := fmt.Sprintf("%d/%d", f+1, seq)
			for _, ev := range []traceEvent{
				{Name: "client.send", Ts: us(t0), Dur: us(t1 - t0)},
				{Name: "sched.wait", Ts: us(stamp), Dur: us(fire - stamp), Args: map[string]any{"id": id, "due_us": us(due), "fire_lag_us": us(fire - due)}},
				{Name: "core.deliver", Ts: us(fire), Dur: us(arr - fire)},
			} {
				ev.Ph, ev.Pid, ev.Tid = "X", 1, f+1
				if ev.Args == nil {
					ev.Args = map[string]any{"id": id}
				}
				if err := emit(ev); err != nil {
					return err
				}
			}
		}
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		return err
	}
	return out.Close()
}
