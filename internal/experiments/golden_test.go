package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sweep"
)

var updateGolden = flag.Bool("update", false, "rewrite golden render files")

// goldenContext is a small fixed-seed workbench, independent of the shared
// test context, so the golden renders are stable and cheap to regenerate.
func goldenContext(t *testing.T) *Context {
	t.Helper()
	c, err := NewContext(60, 7)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGoldenRenders pins every registered artifact byte for byte at a
// fixed seed: its terminal render under the CLI's "== id: title" line
// (testdata/render/<id>.txt) and its CSV export (testdata/render/<id>.csv).
// It also checks that each JSON envelope decodes under the artifact's id.
// The artifacts are regenerated through the concurrent RunMany path, so
// the test proves in every tier (short mode included) that neither the
// sweep executor nor the render pipeline changes a byte of output.
// Regenerate with
//
//	go test ./internal/experiments -run TestGoldenRenders -update
func TestGoldenRenders(t *testing.T) {
	c := goldenContext(t)
	ids := IDs()
	results, err := c.RunMany(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		res := results[i]
		t.Run(id, func(t *testing.T) {
			if res.ID() != id {
				t.Fatalf("RunMany slot %d holds %s, want %s", i, res.ID(), id)
			}
			checkGolden(t, id+".txt", "== "+res.ID()+": "+res.Title()+"\n"+res.Render())
			var csv bytes.Buffer
			if err := sweep.WriteCSV(&csv, res); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, id+".csv", csv.String())

			buf, err := sweep.MarshalArtifact(res)
			if err != nil {
				t.Fatal(err)
			}
			var env struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(buf, &env); err != nil || env.ID != id {
				t.Errorf("JSON envelope broken: id=%q err=%v", env.ID, err)
			}
		})
	}
}

// checkGolden compares got with testdata/render/<name>, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "render", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s deviates from golden.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
