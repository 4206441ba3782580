package fidelity

// Debug HTTP surface: poemd mounts these on its -debug listener next to
// /metrics (see obs.Handler's extra-endpoint hook).
//
//	/healthz         JSON health report; 503 while any shard is overrun
//	/trace           sampled packet lifecycles in the live ring, as JSON
//	/fidelity/trace  live flight-recorder ring as chrome://tracing JSON
//	/fidelity/dump   the ring captured at the last health breach

import (
	"encoding/json"
	"net/http"
)

// healthReport is the /healthz response body.
type healthReport struct {
	State    string     `json:"state"`
	Breaches uint64     `json:"breaches"`
	Shards   []Snapshot `json:"shards"`
}

// HealthHandler reports the health state machine as JSON. The status
// code makes it a real readiness probe: 200 while healthy or degraded,
// 503 once the scheduler has overrun — an orchestrator should stop
// trusting (and routing load to) an emulation that lost the clock.
func (m *Monitor) HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := healthReport{
			State:    m.State().String(),
			Breaches: m.Breaches(),
			Shards:   m.Snapshots(),
		}
		w.Header().Set("Content-Type", "application/json")
		if m.State() >= Overrun {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	})
}

// TraceHandler exports the live flight-recorder ring as chrome://tracing
// JSON — a timeline of recent batch fires (with lag), drops, rebuilds,
// state transitions and sampled packets, without waiting for a breach.
func (m *Monitor) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteTrace(w, m.rec.Snapshot())
	})
}

// DumpHandler exports the flight-recorder dump captured at the most
// recent health breach, as chrome://tracing JSON; 404 until the first
// breach.
func (m *Monitor) DumpHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := m.LastDump()
		if d == nil {
			http.Error(w, "no health breach recorded", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Poem-Breach-State", d.State.String())
		WriteTrace(w, d.Events)
	})
}

// PacketsHandler serves the sampled packet lifecycles in the live ring
// as a JSON array (Lifecycles).
func (m *Monitor) PacketsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(Lifecycles(m.rec.Snapshot()))
	})
}
