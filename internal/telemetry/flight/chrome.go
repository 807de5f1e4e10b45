package flight

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"github.com/decwi/decwi/internal/telemetry"
)

// This file renders one job trace in the Chrome trace_event JSON format
// (the same "JSON Array Format" and the same telemetry.ChromeEvent
// records internal/telemetry's ChromeTrace emits), so `decwi-trace -job` can turn a /debug/jobs/{id} body into a
// file chrome://tracing and Perfetto load directly. Layout:
//
//   - one trace "process" (pid 1) named after the job;
//   - tid 1 ("serve") carries the admission/queue/engine span tree —
//     Chrome nests 'X' events on one thread by time containment, so the
//     tree renders as a flame stack;
//   - each engine worker's chunk spans ("chunk[w]") get their own tid,
//     so the work-stealing execution renders as parallel lanes under
//     the engine-run span.

// serveTID is the thread id of the admission/scheduler span tree;
// chunk spans land on serveTID+1+worker.
const serveTID = 1

// chunkWorker extracts w from a "chunk[w]" span name (-1 otherwise).
func chunkWorker(name string) int {
	rest, ok := strings.CutPrefix(name, "chunk[")
	if !ok || !strings.HasSuffix(rest, "]") {
		return -1
	}
	w, err := strconv.Atoi(rest[:len(rest)-1])
	if err != nil || w < 0 {
		return -1
	}
	return w
}

// ChromeTrace renders the trace for chrome://tracing / Perfetto.
func (t TraceJSON) ChromeTrace() ([]byte, error) {
	procName := t.JobID
	if procName == "" {
		procName = t.TraceID
	}
	out := []telemetry.ChromeEvent{{
		Name: "process_name", Phase: "M", PID: 1,
		Args: map[string]any{"name": fmt.Sprintf("job %s (trace %s, lane %s, %s)",
			procName, t.TraceID, t.Lane, t.State)},
	}, {
		Name: "thread_name", Phase: "M", PID: 1, TID: serveTID,
		Args: map[string]any{"name": "serve"},
	}}

	workers := map[int]bool{}
	for _, s := range t.Spans {
		tid := serveTID
		if w := chunkWorker(s.Name); w >= 0 {
			tid = serveTID + 1 + w
			if !workers[w] {
				workers[w] = true
				out = append(out, telemetry.ChromeEvent{
					Name: "thread_name", Phase: "M", PID: 1, TID: tid,
					Args: map[string]any{"name": fmt.Sprintf("engine worker %d", w)},
				})
			}
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		if s.Arg != 0 {
			args["arg"] = s.Arg
		}
		end := s.EndUS
		if end < 0 {
			// Open span on a live trace: render it up to the last known
			// timestamp so it is visible rather than zero-width.
			end = s.StartUS
		}
		dur := end - s.StartUS
		if dur < 1 {
			// chrome://tracing hides true zero-duration 'X' events;
			// clamp to 1us so instants stay clickable.
			dur = 1
		}
		out = append(out, telemetry.ChromeEvent{
			Name: s.Name, Phase: "X", TS: s.StartUS, Dur: dur,
			PID: 1, TID: tid, Cat: "serve",
		})
		out[len(out)-1].Args = args
	}
	return json.MarshalIndent(telemetry.ChromeTraceFile{TraceEvents: out, DisplayTimeUnit: "ms"}, "", " ")
}
