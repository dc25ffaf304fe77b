package experiments

// The result cache serves a whole workbench-backed artifact from disk —
// its render text, CSV table and JSON envelope — instead of rerunning the
// driver, and the CLI exports those rehydrated artifacts under -cache.
// This file pins, for every registered experiment and every export
// format, that an artifact served from the cache is byte-identical to the
// live result that populated it. A drift (a table not stored, a JSON
// envelope re-encoded and compacted, a render stored before a suffix
// line) fails here with the first diverging byte.

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/resultcache"
	"repro/internal/sweep"
)

// firstDiff reports the first byte where two strings diverge, with a
// little context on each side.
func firstDiff(got, want string) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	lo := i - 40
	if lo < 0 {
		lo = 0
	}
	snip := func(s string) string {
		hi := i + 40
		if hi > len(s) {
			hi = len(s)
		}
		return fmt.Sprintf("%q", s[lo:hi])
	}
	return fmt.Sprintf("first divergence at byte %d:\n  got  ...%s\n  want ...%s", i, snip(got), snip(want))
}

// TestDifferentialRender regenerates every registered experiment live
// into an artifact store, then again from a second context over the same
// store, and pins the served artifact against the live one: identity,
// Render, Table, and the bytes of every format sweep.Export writes.
// Workbench-backed artifacts must come back whole from the store; static
// ones are never cached and must recompute identically.
func TestDifferentialRender(t *testing.T) {
	base := testContext(t)
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runAll := func() []Result {
		c := NewContextOver(base.Engine, base.Workload, base.loops, base.seed)
		c.Cache = store
		results, err := c.RunAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(IDs()) {
			t.Fatalf("RunAll returned %d results, want %d", len(results), len(IDs()))
		}
		return results
	}
	live := runAll()
	served := runAll()

	formats := []string{"json", "csv", "txt"}
	for i, want := range live {
		got := served[i]
		t.Run(want.ID(), func(t *testing.T) {
			_, fromCache := got.(*cachedArtifact)
			if fromCache == Static(want.ID()) {
				t.Errorf("served from the store = %v, want %v", fromCache, !Static(want.ID()))
			}
			if got.ID() != want.ID() || got.Title() != want.Title() {
				t.Errorf("served identity %q/%q, want %q/%q", got.ID(), got.Title(), want.ID(), want.Title())
			}
			if g, w := got.Render(), want.Render(); g != w {
				t.Errorf("Render diverged from the live result\n%s", firstDiff(g, w))
			}
			if g, w := got.Table(), want.Table(); !reflect.DeepEqual(g, w) {
				t.Errorf("Table diverged from the live result:\ngot  %q\nwant %q", g, w)
			}

			gotPaths, err := sweep.Export(t.TempDir(), formats, []sweep.Artifact{got})
			if err != nil {
				t.Fatal(err)
			}
			wantPaths, err := sweep.Export(t.TempDir(), formats, []sweep.Artifact{want})
			if err != nil {
				t.Fatal(err)
			}
			if len(gotPaths) != len(formats) || len(wantPaths) != len(formats) {
				t.Fatalf("exported %d and %d files, want %d each", len(gotPaths), len(wantPaths), len(formats))
			}
			for j, format := range formats {
				g, err := os.ReadFile(gotPaths[j])
				if err != nil {
					t.Fatal(err)
				}
				w, err := os.ReadFile(wantPaths[j])
				if err != nil {
					t.Fatal(err)
				}
				if string(g) != string(w) {
					t.Errorf("%s export diverged from the live result\n%s", format, firstDiff(string(g), string(w)))
				}
				if format == "json" {
					var env struct {
						ID string `json:"id"`
					}
					if err := json.Unmarshal(g, &env); err != nil || env.ID != want.ID() {
						t.Errorf("JSON envelope broken: id=%q err=%v", env.ID, err)
					}
				}
			}
		})
	}
}
