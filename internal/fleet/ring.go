package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over the configured backend set. Each
// backend contributes `replicas` virtual points (hashed "addr#i"), which
// evens out the keyspace split; a workload key's owner is the first
// point clockwise from the key's hash. The ring is built once over the
// FULL configured membership and never rebuilt on health changes: health
// is a filter applied at lookup time (see Router.candidates), so a
// backend going down moves only its own keys to their next replicas, and
// its rejoin restores exactly the original mapping — the property that
// makes prewarm-on-rejoin worth doing.
type ring struct {
	points   []ringPoint
	backends []string
}

// vnodes is the number of virtual points each backend puts on the ring.
const vnodes = 64

type ringPoint struct {
	hash    uint64
	backend int // index into backends
}

// hash64 hashes a string onto the ring. SHA-256 (truncated) rather than
// a fast non-cryptographic hash: the distribution quality is what keeps
// per-backend load even, and ring construction is not a hot path.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

func newRing(backends []string, replicas int) *ring {
	r := &ring{backends: backends}
	for bi, b := range backends {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", b, v)), backend: bi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// order returns every backend exactly once, in the order the clockwise
// ring walk from key's hash first encounters them: order[0] is the key's
// primary, the rest are its failover sequence. The sequence is a pure
// function of (membership, key), so every router instance — and every
// retry — agrees on it.
func (r *ring) order(key string) []string {
	out := make([]string, 0, len(r.backends))
	if len(r.points) == 0 {
		return out
	}
	seen := make([]bool, len(r.backends))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash64(key) })
	for i := 0; i < len(r.points) && len(out) < len(r.backends); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, r.backends[p.backend])
		}
	}
	return out
}

// replicaSet returns the key's first n distinct backends in ring-walk
// order (all of them when fewer exist) — the workload's warm ownership
// set over the full membership, health-blind. Health filtering is the
// router's job; keeping the set a pure function of (membership, key, n)
// is what makes a rejoin restore the exact pre-failure replica map.
func (r *ring) replicaSet(key string, n int) []string {
	out := r.order(key)
	if len(out) > n {
		out = out[:n]
	}
	return out
}
