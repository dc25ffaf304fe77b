package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/serve"
	"repro/internal/workload"
)

// Join adds a backend to the fleet without a router restart. The member
// starts open (out of rotation until probed): it begins taking traffic
// only after RejoinAfter consecutive probe successes, which also fires
// the prewarm fan-out — so the keys the ring moves onto it arrive warm,
// exactly like a rejoin.
func (rt *Router) Join(addr string) error {
	a, err := normalizeAddr(addr)
	if err != nil {
		return err
	}
	rt.mu.Lock()
	if _, ok := rt.backends[a]; ok {
		rt.mu.Unlock()
		return fmt.Errorf("fleet: %s is already a member", a)
	}
	rt.backends[a] = &backendState{addr: a, health: health{state: stateOpen}}
	rt.ring = newRing(append(append([]string(nil), rt.ring.backends...), a), vnodes)
	rt.mu.Unlock()
	rt.logf("fleet: backend %s joined (unhealthy until probed)", a)
	// Probe immediately so adoption starts now, not at the next tick.
	rt.spawn(func() { rt.probe(a) })
	return nil
}

// Leave removes a backend from the fleet: its keys move to their next
// ring candidates and a repair fan-out re-warms the shrunken replica
// sets. Removing the last member is refused — an empty fleet can answer
// nothing, which is never what an operator meant.
func (rt *Router) Leave(addr string) error {
	a, err := normalizeAddr(addr)
	if err != nil {
		return err
	}
	rt.mu.Lock()
	if _, ok := rt.backends[a]; !ok {
		rt.mu.Unlock()
		return fmt.Errorf("fleet: %s is not a member", a)
	}
	if len(rt.backends) == 1 {
		rt.mu.Unlock()
		return fmt.Errorf("fleet: refusing to remove the last member %s (an empty fleet cannot serve; add a replacement first)", a)
	}
	delete(rt.backends, a)
	remaining := make([]string, 0, len(rt.ring.backends)-1)
	for _, b := range rt.ring.backends {
		if b != a {
			remaining = append(remaining, b)
		}
	}
	rt.ring = newRing(remaining, vnodes)
	rt.mu.Unlock()
	rt.logf("fleet: backend %s left the fleet", a)
	rt.scheduleFanout(true)
	return nil
}

// fleetResponse assembles the GET /v1/fleet body: membership, health
// and the registered workloads' replica map.
func (rt *Router) fleetResponse() FleetMembership {
	rows, healthy := rt.healthSnapshot()
	resp := FleetMembership{
		Status:          fleetStatus(healthy, len(rows)),
		Replication:     rt.opts.Replication,
		BackendsTotal:   len(rows),
		BackendsHealthy: healthy,
		Backends:        rows,
		Replicas:        map[string][]string{},
	}
	for _, name := range workload.Names() {
		resp.Replicas[name] = rt.replicaSet(name)
	}
	return resp
}

func (rt *Router) handleFleetStatus(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, rt.fleetResponse())
}

// decodeMemberRequest reads the {"addr": ...} body shared by join and
// leave; a decode failure is answered in place.
func decodeMemberRequest(w http.ResponseWriter, r *http.Request) (string, bool) {
	var req MemberRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "decode member request: %v (want {\"addr\": \"host:port\"})", err)
		return "", false
	}
	if req.Addr == "" {
		serve.WriteError(w, http.StatusBadRequest, "member request has no addr")
		return "", false
	}
	return req.Addr, true
}

func (rt *Router) handleFleetJoin(w http.ResponseWriter, r *http.Request) {
	addr, ok := decodeMemberRequest(w, r)
	if !ok {
		return
	}
	if err := rt.Join(addr); err != nil {
		serve.WriteError(w, http.StatusConflict, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, rt.fleetResponse())
}

func (rt *Router) handleFleetLeave(w http.ResponseWriter, r *http.Request) {
	addr, ok := decodeMemberRequest(w, r)
	if !ok {
		return
	}
	if err := rt.Leave(addr); err != nil {
		serve.WriteError(w, http.StatusConflict, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, rt.fleetResponse())
}
