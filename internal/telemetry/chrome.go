package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file renders the recorder contents in the Chrome trace_event
// JSON format (the "JSON Array Format" with an object wrapper), which
// chrome://tracing and Perfetto load directly. Layout:
//
//   - one trace "process" (pid) per clock Domain, named after the
//     domain, so wall-clock spans and cycle-domain spans never share a
//     time axis;
//   - one trace "thread" (tid) per Track;
//   - spans become 'X' complete events, instants become 'i' events;
//   - counters are appended as 'C' samples at the end of their
//     domain's timeline so their final values are visible in the UI.

// ChromeEvent is one trace_event record. Fields follow the trace_event
// format specification; omitempty keeps instants compact. It is shared
// with internal/telemetry/flight, which renders job traces in the same
// format.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTraceFile is the top-level wrapper object.
type ChromeTraceFile struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// domainPID maps a clock domain to its trace process id (1-based so a
// zero value never collides).
func domainPID(d Domain) int { return int(d) + 1 }

// ChromeTrace builds the trace_event representation of everything the
// recorder retained. It is deterministic given the recorder contents.
func (r *Recorder) ChromeTrace() ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("telemetry: nil recorder has no trace")
	}
	events := r.Events()
	tracks := r.Tracks()

	var out []ChromeEvent
	// Metadata: name the per-domain processes and per-track threads.
	seenDomain := map[Domain]bool{}
	for _, t := range tracks {
		if !seenDomain[t.domain] {
			seenDomain[t.domain] = true
			out = append(out, ChromeEvent{
				Name: "process_name", Phase: "M", PID: domainPID(t.domain),
				Args: map[string]any{"name": t.domain.String()},
			})
		}
		out = append(out, ChromeEvent{
			Name: "thread_name", Phase: "M", PID: domainPID(t.domain), TID: int(t.id),
			Args: map[string]any{"name": t.name},
		})
	}

	// Retained events. Track the per-domain horizon so counter samples
	// can be stamped after the last real event.
	horizon := map[Domain]int64{}
	for _, ev := range events {
		t := r.trackByID(ev.Track)
		if t == nil {
			continue
		}
		name := ev.Kind.String()
		if lbl := r.labelName(ev.Label); lbl != "" {
			name = lbl
		}
		ce := ChromeEvent{
			Name: name,
			TS:   ev.TS,
			PID:  domainPID(t.domain),
			TID:  int(t.id),
			Cat:  ev.Kind.String(),
			Args: map[string]any{"arg": ev.Arg},
		}
		switch ev.Phase {
		case PhaseSpan:
			ce.Phase = "X"
			ce.Dur = ev.Dur
			if end := ev.TS + ev.Dur; end > horizon[t.domain] {
				horizon[t.domain] = end
			}
		default:
			ce.Phase = "i"
			ce.Scope = "t"
			if ev.TS > horizon[t.domain] {
				horizon[t.domain] = ev.TS
			}
		}
		out = append(out, ce)
	}

	// Counters: one 'C' sample per counter at its domain horizon. Cycle
	// counters land on the Cycles process, nanosecond counters on Wall,
	// everything else on Wall too.
	for _, c := range r.Counters() {
		d := Wall
		if c.Unit() == "cycles" {
			d = Cycles
		}
		out = append(out, ChromeEvent{
			Name: c.Name(), Phase: "C", TS: horizon[d], PID: domainPID(d),
			Args: map[string]any{c.Unit(): c.Value()},
		})
	}

	return json.MarshalIndent(ChromeTraceFile{TraceEvents: out, DisplayTimeUnit: "ms"}, "", " ")
}

// WriteChromeTrace writes the trace_event JSON to w.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	b, err := r.ChromeTrace()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
