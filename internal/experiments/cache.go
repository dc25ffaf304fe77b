package experiments

import (
	"encoding/json"
	"fmt"

	"repro/internal/resultcache"
	"repro/internal/sweep"
)

// artifactCacheVersion is the artifact-bundle schema epoch. Bump it when
// the bundle layout, the render format, or anything an artifact's bytes
// depend on outside the engine fingerprint (e.g. the workload registry
// the `workloads` experiment sweeps) changes.
const artifactCacheVersion = "artifact-v1"

// cachedArtifact is a whole experiment artifact rehydrated from the
// persistent store: the exact render text, CSV table and JSON envelope
// of the run that populated it. It satisfies Result and
// sweep.RawArtifact, so every export path emits byte-identical output
// without touching the engine. Envelope is []byte (base64 in the bundle)
// rather than json.RawMessage: Marshal compacts an embedded RawMessage,
// which would silently break the byte-identical guarantee.
type cachedArtifact struct {
	AID      string     `json:"id"`
	ATitle   string     `json:"title"`
	ARender  string     `json:"render"`
	ATable   [][]string `json:"table"`
	Envelope []byte     `json:"envelope"`
}

func (a *cachedArtifact) ID() string                  { return a.AID }
func (a *cachedArtifact) Title() string               { return a.ATitle }
func (a *cachedArtifact) Render() string              { return a.ARender }
func (a *cachedArtifact) Table() [][]string           { return a.ATable }
func (a *cachedArtifact) MarshalArtifactJSON() []byte { return a.Envelope }

// artifactKey derives the persistent key for one experiment's artifact,
// or ok=false when artifact memoization does not apply: no cache
// attached, a static (workload-independent, near-free) driver, or an
// engine whose inputs cannot be fingerprinted.
func (c *Context) artifactKey(r runner) (string, bool) {
	if c.Cache == nil || r.static || c.Engine == nil {
		return "", false
	}
	fp := c.Engine.Fingerprint()
	if fp == "" {
		return "", false
	}
	// loops and seed are in the key because cross-workload drivers (the
	// `workloads` experiment) build the *other* scenarios at this scale;
	// the engine fingerprint only pins this context's own suite.
	return resultcache.Sum("artifact", artifactCacheVersion, fp, r.id,
		fmt.Sprintf("%d.%d", c.loops, c.seed)), true
}

// cachedRun returns the memoized artifact for the runner, if any. A
// bundle that decodes badly or answers for the wrong id is dropped and
// recomputed.
func (c *Context) cachedRun(r runner) (Result, bool) {
	key, ok := c.artifactKey(r)
	if !ok {
		return nil, false
	}
	data, ok := c.Cache.Get(key)
	if !ok {
		return nil, false
	}
	var a cachedArtifact
	if err := json.Unmarshal(data, &a); err != nil || a.AID != r.id || len(a.Envelope) == 0 {
		c.Cache.Delete(key)
		return nil, false
	}
	return &a, true
}

// cachePut persists a freshly computed artifact. Failures are ignored —
// the cache accelerates, it never gates.
func (c *Context) cachePut(r runner, res Result) {
	key, ok := c.artifactKey(r)
	if !ok {
		return
	}
	envelope, err := sweep.MarshalArtifact(res)
	if err != nil {
		return
	}
	data, err := json.Marshal(cachedArtifact{
		AID:      res.ID(),
		ATitle:   res.Title(),
		ARender:  res.Render(),
		ATable:   res.Table(),
		Envelope: envelope,
	})
	if err != nil {
		return
	}
	c.Cache.Put(key, data)
}
