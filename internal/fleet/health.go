package fleet

// memberState is a backend's place in its failure state machine.
type memberState uint8

const (
	// stateHealthy: in rotation, no failure since the last success.
	stateHealthy memberState = iota
	// stateSuspect: in rotation, failing, not yet at FailAfter.
	stateSuspect
	// stateOpen: drained from rotation until RejoinAfter consecutive
	// probe successes.
	stateOpen
	// stateHalfOpen: back in rotation on probation. Its first request
	// success makes it healthy; its first failure of any kind reopens it.
	stateHalfOpen
)

// String names the state as /v1/stats reports it.
func (s memberState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateSuspect:
		return "suspect"
	case stateOpen:
		return "open"
	default:
		return "half-open"
	}
}

// event is one outcome fed to a backend's state machine.
type event uint8

const (
	probeOK event = iota
	probeFailed
	requestOK
	requestFailed
)

// health is one backend's failure state machine. Probe and request
// failures share one counter, so a dead backend leaves rotation at
// request speed instead of waiting out a probe cycle. Only probes bring
// an open backend back, and only a request success clears a half-open
// one: a backend whose /healthz answers while its data path fails
// leaves rotation again on its first failed request after each rejoin.
type health struct {
	state  memberState
	fails  int // consecutive failures since the last success
	probes int // consecutive probe successes while open
}

// inRotation reports whether the backend takes traffic; it is what
// /healthz and /v1/stats report as healthy.
func (h *health) inRotation() bool { return h.state != stateOpen }

// step applies e. left reports a move into open (the router drains the
// backend and repairs warmth); rejoined a move from open to half-open
// (the router fans out a prewarm before traffic arrives).
func (h *health) step(e event, failAfter, rejoinAfter int) (left, rejoined bool) {
	failed := e == probeFailed || e == requestFailed
	switch h.state {
	case stateOpen:
		switch e {
		case probeFailed:
			h.fails++
			h.probes = 0
		case probeOK:
			h.fails = 0
			h.probes++
			if h.probes >= rejoinAfter {
				h.state, h.probes = stateHalfOpen, 0
				return false, true
			}
		}
		// Request outcomes landing after the backend left rotation
		// change nothing.
	case stateHalfOpen:
		if failed {
			h.fails++
			h.state = stateOpen
			return true, false
		}
		if e == requestOK {
			h.state = stateHealthy
		}
	default:
		if !failed {
			h.state, h.fails = stateHealthy, 0
			return false, false
		}
		h.fails++
		if h.fails >= failAfter {
			h.state = stateOpen
			return true, false
		}
		h.state = stateSuspect
	}
	return false, false
}
