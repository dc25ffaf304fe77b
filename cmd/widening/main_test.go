package main

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatalf("list: %v", err)
	}
}

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no arguments must error")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-loops", "5", "nope"}); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunFastExperiment(t *testing.T) {
	if err := run([]string{"-loops", "5", "table1", "table6"}); err != nil {
		t.Fatalf("table1 table6: %v", err)
	}
}

// TestRunCPUProfile: -cpuprofile writes a pprof profile of the run, a
// non-empty gzip stream.
func TestRunCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := run([]string{"-loops", "4", "-cpuprofile", path, "fig3"}); err != nil {
		t.Fatalf("-cpuprofile run: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	if data, err := io.ReadAll(zr); err != nil || len(data) == 0 {
		t.Fatalf("profile decompresses to %d bytes (err %v), want a non-empty pprof profile", len(data), err)
	}
	if err := run([]string{"-loops", "4", "-cpuprofile", filepath.Join(t.TempDir(), "no", "dir", "cpu.pprof"), "table1"}); err == nil {
		t.Error("an unwritable -cpuprofile path must error")
	}
}

func TestRunExportsArtifacts(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-loops", "5", "-out", dir, "-format", "json,csv,txt", "table1", "fig6"}); err != nil {
		t.Fatalf("export run: %v", err)
	}
	for _, name := range []string{
		"table1.json", "table1.csv", "table1.txt",
		"fig6.json", "fig6.csv", "fig6.txt",
	} {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing export %s: %v", name, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("empty export %s", name)
		}
	}
	if err := run([]string{"-loops", "5", "-out", dir, "-format", "yaml", "table1"}); err == nil {
		t.Error("unknown export format must error")
	}
}

func TestRunWorkloadFlag(t *testing.T) {
	if err := run([]string{"-loops", "5", "-workload", "kernels", "table6"}); err != nil {
		t.Fatalf("-workload kernels: %v", err)
	}
	if err := run([]string{"-loops", "5", "-workload", "nope", "table6"}); err == nil {
		t.Fatal("unknown workload must error")
	}
	if err := run([]string{"-workload", filepath.Join(t.TempDir(), "absent.json"), "table6"}); err == nil {
		t.Fatal("missing workload file must error")
	}
}

// TestScenarioNameWinsOverFile pins the -workload resolution order: a
// stray file in the working directory named like a registered scenario
// must not shadow the scenario.
func TestScenarioNameWinsOverFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "default"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	if err := run([]string{"-loops", "5", "table6"}); err != nil {
		t.Fatalf("default run with a stray 'default' file in cwd: %v", err)
	}
}

func TestRunWorkloadSubcommand(t *testing.T) {
	if err := run([]string{"workload", "list"}); err != nil {
		t.Fatalf("workload list: %v", err)
	}
	if err := run([]string{"workload", "show", "-name", "strided", "-loops", "6"}); err != nil {
		t.Fatalf("workload show: %v", err)
	}
	if err := run([]string{"workload"}); err == nil {
		t.Fatal("missing subcommand must error")
	}
	if err := run([]string{"workload", "frobnicate"}); err == nil {
		t.Fatal("unknown subcommand must error")
	}
	if err := run([]string{"workload", "show", "-name", "nope"}); err == nil {
		t.Fatal("unknown workload must error")
	}
	if err := run([]string{"workload", "import"}); err == nil {
		t.Fatal("import without -in must error")
	}
}

// TestWorkloadExportImportRoundTrip pins the CLI contract CI smokes: an
// exported workload file imports cleanly and drives an experiment run.
func TestWorkloadExportImportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wl.json")
	if err := run([]string{"workload", "export", "-name", "divheavy", "-loops", "6", "-o", path}); err != nil {
		t.Fatalf("export: %v", err)
	}
	if err := run([]string{"workload", "import", "-in", path}); err != nil {
		t.Fatalf("import: %v", err)
	}
	if err := run([]string{"-workload", path, "table6"}); err != nil {
		t.Fatalf("experiment over imported workload: %v", err)
	}
	// A corrupted file must be rejected by the strict decoder.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte(strings.Replace(string(data), `"kind": "load"`, `"kind": "vfma"`, 1))
	if string(bad) == string(data) {
		t.Fatal("corruption did not apply")
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"workload", "import", "-in", path}); err == nil {
		t.Fatal("corrupted workload must fail import")
	}
}

func TestRunExportWritesManifest(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-loops", "5", "-out", dir, "-format", "json", "table1"}); err != nil {
		t.Fatalf("export run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatalf("missing manifest: %v", err)
	}
	for _, want := range []string{`"workload": "default"`, `"loops": 5`, `"table1"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("manifest missing %s:\n%s", want, data)
		}
	}
}

// TestRunScheduleKernel pins the schedule subcommand's report byte for
// byte against testdata/schedule.golden, then probes its error paths.
func TestRunScheduleKernel(t *testing.T) {
	var got strings.Builder
	for _, args := range [][]string{
		{"schedule", "-config", "2w2", "-regs", "64", "-kernel", "daxpy"},
		{"schedule", "-config", "8w1", "-regs", "32", "-kernel", "fir8"},
	} {
		got.WriteString(captureStdout(t, func() error { return run(args) }))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "schedule.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("schedule output drifted from testdata/schedule.golden:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
	if err := run([]string{"schedule", "-kernel", "list"}); err != nil {
		t.Fatalf("kernel list: %v", err)
	}
	if err := run([]string{"schedule", "-kernel", "nope"}); err == nil {
		t.Fatal("unknown kernel must error")
	}
	if err := run([]string{"schedule", "-config", "bogus"}); err == nil {
		t.Fatal("bad config must error")
	}
}
