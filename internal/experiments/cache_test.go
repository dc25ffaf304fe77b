package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/resultcache"
	"repro/internal/sweep"
)

// cacheCtx builds a small context wired to the given store.
func cacheCtx(t *testing.T, store *resultcache.Store) *Context {
	t.Helper()
	c, err := NewContext(12, 7)
	if err != nil {
		t.Fatal(err)
	}
	c.Cache = store
	return c
}

// TestArtifactCacheByteIdentical: a second context over the same
// workload and store serves the whole artifact from disk — identical
// render, table and JSON envelope — without invoking the engine.
func TestArtifactCacheByteIdentical(t *testing.T) {
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	cold := cacheCtx(t, store)
	want, err := cold.Run("fig8")
	if err != nil {
		t.Fatal(err)
	}
	wantEnv, err := sweep.MarshalArtifact(want)
	if err != nil {
		t.Fatal(err)
	}
	if store.Stats().Writes == 0 {
		t.Fatal("cold run persisted nothing")
	}

	warm := cacheCtx(t, store)
	got, err := warm.Run("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Engine.Stats(); s.SuiteComputes != 0 || s.PeakComputes != 0 || s.WidenComputes != 0 {
		t.Fatalf("warm engine stats = %+v, want zero computes (artifact served whole)", s)
	}
	gotEnv, err := sweep.MarshalArtifact(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnv, wantEnv) {
		t.Error("cached envelope not byte-identical")
	}
	if got.Render() != want.Render() {
		t.Error("cached render differs")
	}
	a, b := want.Table(), got.Table()
	if len(a) != len(b) {
		t.Fatalf("table rows %d != %d", len(b), len(a))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("table cell [%d][%d]: %q != %q", i, j, b[i][j], a[i][j])
			}
		}
	}
	if got.ID() != "fig8" || got.Title() == "" {
		t.Errorf("cached identity = %q/%q", got.ID(), got.Title())
	}
}

// TestArtifactCacheScopedByScale: contexts at different loops/seed must
// not share artifact cells even over the same scenario name.
func TestArtifactCacheScopedByScale(t *testing.T) {
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := cacheCtx(t, store)
	if _, err := a.Run("fig7"); err != nil {
		t.Fatal(err)
	}
	writes := store.Stats().Writes

	b, err := NewContext(14, 7)
	if err != nil {
		t.Fatal(err)
	}
	b.Cache = store
	if _, err := b.Run("fig7"); err != nil {
		t.Fatal(err)
	}
	if store.Stats().Writes == writes {
		t.Fatal("different workbench reused the same artifact cell")
	}
}

// TestArtifactCacheSkipsStatic: workload-independent drivers are cheap
// and must not consume cache entries.
func TestArtifactCacheSkipsStatic(t *testing.T) {
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := cacheCtx(t, store)
	if _, err := c.Run("table1"); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Writes != 0 {
		t.Fatalf("static driver wrote %d cache entries", st.Writes)
	}
}

// TestArtifactCacheCorruptBundleRecomputed: a bundle that decodes badly
// is dropped and the driver re-runs.
func TestArtifactCacheCorruptBundleRecomputed(t *testing.T) {
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := cacheCtx(t, store)
	want, err := cold.Run("fig7")
	if err != nil {
		t.Fatal(err)
	}
	key, ok := cold.artifactKey(runnerByID(t, "fig7"))
	if !ok {
		t.Fatal("no artifact key for fig7")
	}
	if err := store.Put(key, []byte(`{"id":"not-fig7"}`)); err != nil {
		t.Fatal(err)
	}

	warm := cacheCtx(t, store)
	got, err := warm.Run("fig7")
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Error("recomputed artifact differs from original")
	}
	if _, served := got.(*cachedArtifact); served {
		t.Error("bad bundle was served instead of recomputed")
	}
	// The poisoned entry must have been replaced by a valid bundle.
	data, ok := store.Get(key)
	if !ok {
		t.Fatal("recompute did not repopulate the artifact cell")
	}
	var a cachedArtifact
	if err := json.Unmarshal(data, &a); err != nil || a.AID != "fig7" {
		t.Fatalf("repopulated bundle = %q/%v, want a valid fig7 bundle", a.AID, err)
	}
}

func runnerByID(t *testing.T, id string) runner {
	t.Helper()
	for _, r := range registry {
		if r.id == id {
			return r
		}
	}
	t.Fatalf("unknown runner %q", id)
	return runner{}
}
