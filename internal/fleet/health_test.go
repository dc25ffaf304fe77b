package fleet

import "testing"

func TestHealthStateMachine(t *testing.T) {
	const failAfter, rejoinAfter = 3, 2
	cases := []struct {
		name           string
		from           health
		events         []event
		want           health
		left, rejoined bool // reported by the last event
	}{
		{
			name:   "probe and request failures share one counter",
			events: []event{probeFailed, requestFailed},
			want:   health{state: stateSuspect, fails: 2},
		},
		{
			name:   "FailAfter failures of either kind open it",
			events: []event{requestFailed, probeFailed, requestFailed},
			want:   health{state: stateOpen, fails: 3},
			left:   true,
		},
		{
			name:   "a request success clears a suspect streak",
			from:   health{state: stateSuspect, fails: 2},
			events: []event{requestOK, requestFailed, probeFailed},
			want:   health{state: stateSuspect, fails: 2},
		},
		{
			name:   "a probe success clears a suspect streak",
			from:   health{state: stateSuspect, fails: 2},
			events: []event{probeOK},
			want:   health{state: stateHealthy},
		},
		{
			name:   "a probe failure resets the rejoin streak",
			from:   health{state: stateOpen, fails: 3},
			events: []event{probeOK, probeFailed, probeOK},
			want:   health{state: stateOpen, probes: 1},
		},
		{
			name:     "RejoinAfter probe successes move open to half-open",
			from:     health{state: stateOpen, fails: 3},
			events:   []event{probeOK, probeOK},
			want:     health{state: stateHalfOpen},
			rejoined: true,
		},
		{
			name:   "a request success makes half-open healthy",
			from:   health{state: stateHalfOpen},
			events: []event{requestOK},
			want:   health{state: stateHealthy},
		},
		{
			name:   "a probe success leaves half-open undecided",
			from:   health{state: stateHalfOpen},
			events: []event{probeOK},
			want:   health{state: stateHalfOpen},
		},
		{
			name:   "half-open reopens on its first probe failure",
			from:   health{state: stateHalfOpen},
			events: []event{probeFailed},
			want:   health{state: stateOpen, fails: 1},
			left:   true,
		},
		{
			name:   "half-open reopens on its first request failure",
			from:   health{state: stateHalfOpen},
			events: []event{requestFailed},
			want:   health{state: stateOpen, fails: 1},
			left:   true,
		},
		{
			name:   "request outcomes while open change nothing",
			from:   health{state: stateOpen, fails: 3, probes: 1},
			events: []event{requestFailed, requestOK, requestFailed},
			want:   health{state: stateOpen, fails: 3, probes: 1},
		},
	}
	for _, tc := range cases {
		h := tc.from
		var left, rejoined bool
		for _, e := range tc.events {
			left, rejoined = h.step(e, failAfter, rejoinAfter)
		}
		if h != tc.want || left != tc.left || rejoined != tc.rejoined {
			t.Errorf("%s: got %+v (left %v, rejoined %v), want %+v (left %v, rejoined %v)",
				tc.name, h, left, rejoined, tc.want, tc.left, tc.rejoined)
		}
	}

	for s, want := range map[memberState]bool{stateHealthy: true, stateSuspect: true, stateOpen: false, stateHalfOpen: true} {
		h := health{state: s}
		if got := h.inRotation(); got != want {
			t.Errorf("inRotation in %s = %v, want %v", s, got, want)
		}
	}
}
