package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeArtifact is a minimal tabular artifact for exercising the exporters.
type fakeArtifact struct {
	Rows []int
}

func (*fakeArtifact) ID() string     { return "fake1" }
func (*fakeArtifact) Title() string  { return "a fake artifact" }
func (*fakeArtifact) Render() string { return "rendered\n" }
func (f *fakeArtifact) Table() [][]string {
	out := [][]string{{"n"}}
	for _, r := range f.Rows {
		out = append(out, []string{strings.Repeat("x", r)})
	}
	return out
}

func TestExportFormats(t *testing.T) {
	dir := t.TempDir()
	arts := []Artifact{&fakeArtifact{Rows: []int{1, 2}}}
	paths, err := Export(dir, []string{"json", "csv", "txt"}, arts)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("wrote %d files, want 3: %v", len(paths), paths)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "fake1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Data  struct {
			Rows []int `json:"Rows"`
		} `json:"data"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.ID != "fake1" || env.Title == "" || len(env.Data.Rows) != 2 {
		t.Errorf("json envelope = %+v", env)
	}

	csvBytes, err := os.ReadFile(filepath.Join(dir, "fake1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(csvBytes); got != "n\nx\nxx\n" {
		t.Errorf("csv = %q", got)
	}

	txt, err := os.ReadFile(filepath.Join(dir, "fake1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(txt) != "rendered\n" {
		t.Errorf("txt = %q", txt)
	}

	if _, err := Export(dir, []string{"yaml"}, arts); err == nil {
		t.Error("unknown format must error")
	}
}

func TestWriteManifest(t *testing.T) {
	dir := t.TempDir()
	path, err := WriteManifest(dir, Manifest{
		Workload:  "divheavy",
		Loops:     40,
		Seed:      7,
		Formats:   []string{"json"},
		Artifacts: []string{"table5", "fig8"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "manifest.json" {
		t.Errorf("manifest at %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Workload != "divheavy" || m.Loops != 40 || m.Seed != 7 || len(m.Artifacts) != 2 {
		t.Errorf("round-tripped manifest = %+v", m)
	}
}

func TestParseFormats(t *testing.T) {
	got, err := ParseFormats(" json, csv ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "json" || got[1] != "csv" {
		t.Errorf("ParseFormats = %v", got)
	}
	// Repeats are dropped, keeping first-seen order, so Export writes each
	// file once and the manifest lists each format once.
	got, err = ParseFormats("json,json,csv,json")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "json" || got[1] != "csv" {
		t.Errorf("ParseFormats(repeats) = %v, want [json csv]", got)
	}
	if _, err := ParseFormats("yaml"); err == nil {
		t.Error("unknown format must error")
	}
	if _, err := ParseFormats(" , "); err == nil {
		t.Error("empty selection must error")
	}
}
