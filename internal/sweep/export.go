package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// ParseFormats parses a comma-separated export format list ("json,csv"),
// trimming spaces and dropping empty elements and repeats (first-seen
// order is kept). It is the single source of truth for the formats Export
// understands, so callers can fail fast on a typo before doing any
// expensive work.
func ParseFormats(s string) ([]string, error) {
	var out []string
	for _, f := range strings.Split(s, ",") {
		switch f = strings.TrimSpace(f); f {
		case "json", "csv", "txt":
			if !slices.Contains(out, f) {
				out = append(out, f)
			}
		case "":
		default:
			return nil, fmt.Errorf("sweep: unknown export format %q (want json, csv or txt)", f)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: no export format selected (want json, csv or txt)")
	}
	return out, nil
}

// Artifact is a regenerated paper artifact as the export layer sees it;
// experiments.Result is an alias of it.
type Artifact interface {
	// ID is the experiment identifier (e.g. "fig2", "table5").
	ID() string
	// Title describes the artifact.
	Title() string
	// Render returns the terminal representation.
	Render() string
	// Table returns the header row followed by the data rows, the primary
	// table the CSV exporter writes.
	Table() [][]string
}

// RawArtifact is implemented by artifacts that carry their own canonical
// JSON envelope — the result cache's rehydrated artifacts. MarshalArtifact
// returns those bytes verbatim, so an artifact served from the cache
// exports byte-identically to the run that populated it.
type RawArtifact interface {
	MarshalArtifactJSON() []byte
}

// jsonEnvelope is the on-disk JSON shape: identification plus the full
// typed result struct.
type jsonEnvelope struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Data  any    `json:"data"`
}

// MarshalArtifact renders the artifact's canonical JSON envelope — id,
// title, and the full typed result under "data" — the same bytes ExportJSON
// writes to disk. The serving layer reuses it so an HTTP experiment
// response and an exported artifact file are byte-compatible.
func MarshalArtifact(a Artifact) ([]byte, error) {
	if ra, ok := a.(RawArtifact); ok {
		return ra.MarshalArtifactJSON(), nil
	}
	buf, err := json.MarshalIndent(jsonEnvelope{ID: a.ID(), Title: a.Title(), Data: a}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("sweep: marshal %s: %w", a.ID(), err)
	}
	return append(buf, '\n'), nil
}

// ExportJSON writes dir/<id>.json holding the artifact's typed rows and
// returns the path.
func ExportJSON(dir string, a Artifact) (string, error) {
	buf, err := MarshalArtifact(a)
	if err != nil {
		return "", err
	}
	return writeArtifact(dir, a.ID()+".json", buf)
}

// WriteCSV encodes the artifact's primary table onto w.
func WriteCSV(w io.Writer, a Artifact) error {
	return csv.NewWriter(w).WriteAll(a.Table())
}

// ExportCSV writes dir/<id>.csv with the artifact's primary table and
// returns the path.
func ExportCSV(dir string, a Artifact) (string, error) {
	path := filepath.Join(dir, a.ID()+".csv")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := WriteCSV(f, a); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// Export writes every artifact in every requested format (see
// ParseFormats) into dir and returns the written paths.
func Export(dir string, formats []string, artifacts []Artifact) ([]string, error) {
	var paths []string
	for _, a := range artifacts {
		for _, format := range formats {
			var (
				p   string
				err error
			)
			switch format {
			case "json":
				p, err = ExportJSON(dir, a)
			case "csv":
				p, err = ExportCSV(dir, a)
			case "txt":
				p, err = writeArtifact(dir, a.ID()+".txt", []byte(a.Render()))
			default:
				return paths, fmt.Errorf("sweep: unknown export format %q (want json, csv or txt)", format)
			}
			if err != nil {
				return paths, err
			}
			paths = append(paths, p)
		}
	}
	return paths, nil
}

// Manifest records the provenance of one export batch: which workload
// scenario the artifacts were regenerated over, at what size and seed,
// and what was written. Exported next to the artifacts as
// manifest.json, it makes an artifact directory self-describing.
type Manifest struct {
	// Workload names the scenario (or workload file) the artifacts were
	// regenerated over.
	Workload string `json:"workload,omitempty"`
	// Loops and Seed are the workbench overrides in force (0 = defaults).
	Loops int   `json:"loops,omitempty"`
	Seed  int64 `json:"seed,omitempty"`
	// Formats and Artifacts list what was exported.
	Formats   []string `json:"formats"`
	Artifacts []string `json:"artifacts"`
}

// WriteManifest writes dir/manifest.json and returns the path.
func WriteManifest(dir string, m Manifest) (string, error) {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("sweep: marshal manifest: %w", err)
	}
	return writeArtifact(dir, "manifest.json", append(buf, '\n'))
}

func writeArtifact(dir, name string, data []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
