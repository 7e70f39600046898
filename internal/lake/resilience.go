package lake

import (
	"fmt"
	"time"

	"enld/internal/detect"
)

// Policy configures the service's resilience behaviour. The zero value
// disables everything — no per-task deadline, no fallback — preserving the
// plain fail-fast path. The primary detector is attempted once per task:
// Detect is deterministic, so a failure would fail the same way again.
type Policy struct {
	// TaskTimeout bounds each detector attempt. A stuck detector becomes a
	// report error instead of a wedged worker; the abandoned attempt's
	// goroutine is left to finish in the background. 0 disables.
	TaskTimeout time.Duration
	// Fallback, when set, handles a task whose primary path failed.
	// Fallback results are flagged Degraded in the report — never silently
	// passed off as primary output.
	Fallback detect.Detector
	// Admission bounds the admission queue and enables deadline-aware load
	// shedding (see AdmissionConfig). The zero value keeps the legacy
	// unbounded, backpressuring behaviour.
	Admission AdmissionConfig
}

// validate rejects a policy with a negative field.
func (p Policy) validate() error {
	if p.TaskTimeout < 0 {
		return fmt.Errorf("lake: negative policy field: %+v", p)
	}
	return p.Admission.Validate()
}
