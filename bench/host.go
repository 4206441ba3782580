package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostFacts is recorded in result.json so a number can be traced to the
// machine state it was taken on.
type hostFacts struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Load1      float64 `json:"load1_at_start"`
	Busy       float64 `json:"cpu_busy_at_start"` // share of the host's CPU time not idle over the 250 ms before the run
}

func readHost() hostFacts {
	h := hostFacts{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if idle0, total0, ok := cpuTicks(); ok {
		time.Sleep(250 * time.Millisecond)
		if idle1, total1, ok := cpuTicks(); ok && total1 > total0 {
			h.Busy = 1 - (idle1-idle0)/(total1-total0)
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(b)); len(fields) > 0 {
			h.Load1, _ = strconv.ParseFloat(fields[0], 64) // 0 when unreadable
		}
	}
	return h
}

// cpuTicks reads the host's idle and total CPU time from the first line
// of /proc/stat.
func cpuTicks() (idle, total float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 6 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 3 || i == 4 { // idle, iowait
			idle += n
		}
	}
	return idle, total, true
}

// statusMiB reads one kB-valued field of /proc/self/status; 0 when
// unreadable.
func statusMiB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64) // 0 when unreadable
				return kb / 1024
			}
		}
	}
	return 0
}

// rssMiB is the process's resident set now; peakRSSMiB its high-water
// mark.
func rssMiB() float64     { return statusMiB("VmRSS") }
func peakRSSMiB() float64 { return statusMiB("VmHWM") }
