package perfcost

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/resultcache"
	"repro/internal/sweep"
)

// testLoops builds the deterministic workbench the cache tests share.
func testLoops(t *testing.T, n int) []*ddg.Loop {
	t.Helper()
	p := loopgen.Defaults()
	p.Loops = n
	suite, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

func openStore(t *testing.T) *resultcache.Store {
	t.Helper()
	s, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cacheCells is a panel of four suites on three machines: 2w1 with 64 and
// 128 registers share the 3-cycle model, so a batch computes them together.
var cacheCells = []sweep.Cell{
	{Config: cfg("2w1"), Regs: 64, Partitions: 1},
	{Config: cfg("2w2"), Regs: 64, Partitions: 2},
	{Config: cfg("4w1"), Regs: 128, Partitions: 1},
	{Config: cfg("2w1"), Regs: 128, Partitions: 1},
}

// TestDiskCacheWarmRunComputesNothing is the acceptance-criteria core: a
// cold batch writes every cell it computes, and a fresh engine over the
// same workload and store must answer the same panel entirely from disk —
// zero suite/peak computes — with identical points. A batch whose machine
// group is partly on disk computes only the missing cell.
func TestDiskCacheWarmRunComputesNothing(t *testing.T) {
	loops := testLoops(t, 12)
	store := openStore(t)

	cold := New(loops, &Options{Cache: store})
	want := cold.EvaluateMany(cacheCells)
	cs := cold.Stats()
	if cs.SuiteComputes != int64(len(cacheCells)) || cs.DiskMisses != int64(len(cacheCells)) {
		t.Fatalf("cold stats = %+v, want %d computes and disk misses", cs, len(cacheCells))
	}
	if w := store.Stats().Writes; w != int64(len(cacheCells)) {
		t.Fatalf("cold batch wrote %d cells, want %d", w, len(cacheCells))
	}
	peakWant := cold.PeakCycles(cfg("4w1"), machine.FourCycle)
	if cs.DiskHits != 0 {
		t.Fatalf("cold stats = %+v, want zero disk hits on an empty store", cs)
	}

	warm := New(loops, &Options{Cache: store})
	got := warm.EvaluateMany(cacheCells)
	peakGot := warm.PeakCycles(cfg("4w1"), machine.FourCycle)
	ws := warm.Stats()
	if ws.SuiteComputes != 0 || ws.PeakComputes != 0 {
		t.Fatalf("warm stats = %+v, want zero suite/peak computes", ws)
	}
	if ws.DiskHits == 0 || ws.DiskMisses != 0 {
		t.Fatalf("warm stats = %+v, want pure disk hits", ws)
	}
	if len(got) != len(want) {
		t.Fatalf("point count %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("cell %d: warm point %+v != cold point %+v", i, got[i], want[i])
		}
	}
	if peakGot != peakWant {
		t.Errorf("warm peak %v != cold peak %v", peakGot, peakWant)
	}

	// 2w1 with 32 registers joins the 2w1 3-cycle group: its two cached
	// cells come from disk and only the new one is scheduled, matching a
	// fresh engine without a store.
	more := append([]sweep.Cell{{Config: cfg("2w1"), Regs: 32, Partitions: 1}}, cacheCells...)
	partial := New(loops, &Options{Cache: store})
	got = partial.EvaluateMany(more)
	if ps := partial.Stats(); ps.SuiteComputes != 1 || ps.DiskHits != int64(len(cacheCells)) {
		t.Fatalf("partly warm stats = %+v, want 1 compute and %d disk hits", ps, len(cacheCells))
	}
	if ref := New(loops, nil).Evaluate(more[0].Config, more[0].Regs, more[0].Partitions); got[0] != ref {
		t.Errorf("new cell from a partly warm group %+v != fresh engine %+v", got[0], ref)
	}
}

// TestDiskCacheCorruptEntriesRecomputed corrupts every persisted entry in
// place; a fresh engine must detect all of them and recompute identical
// results instead of serving garbage.
func TestDiskCacheCorruptEntriesRecomputed(t *testing.T) {
	loops := testLoops(t, 10)
	store := openStore(t)
	cold := New(loops, &Options{Cache: store})
	want := cold.EvaluateMany(cacheCells)

	var corrupted int
	err := filepath.WalkDir(filepath.Join(store.Dir(), resultcache.FormatEpoch),
		func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0xFF
			corrupted++
			return os.WriteFile(path, data, 0o644)
		})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("no entries persisted to corrupt")
	}

	fresh := New(loops, &Options{Cache: store})
	got := fresh.EvaluateMany(cacheCells)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("cell %d: post-corruption point %+v != original %+v", i, got[i], want[i])
		}
	}
	fs := fresh.Stats()
	if fs.SuiteComputes == 0 {
		t.Fatalf("fresh stats = %+v, want recomputes after corruption", fs)
	}
	if fs.DiskHits != 0 {
		t.Fatalf("fresh stats = %+v, corrupt entries must never be served", fs)
	}
	if store.Stats().Corrupt == 0 {
		t.Fatal("store never flagged the corrupted entries")
	}
}

// TestFingerprintStability: equal inputs fingerprint equally; any input a
// cached cell depends on diverges it.
func TestFingerprintStability(t *testing.T) {
	loops := testLoops(t, 8)
	a := New(loops, nil).Fingerprint()
	b := New(loops, nil).Fingerprint()
	if a == "" || a != b {
		t.Fatalf("same inputs: %q vs %q, want equal non-empty", a, b)
	}
	if c := New(testLoops(t, 9), nil).Fingerprint(); c == a {
		t.Error("different workbench, same fingerprint")
	}
}

// TestFingerprintPinned pins the persistent-cache keys: an engine's
// fingerprint over a fixed workbench must not move, or every cell a
// previous build persisted stops hitting. A deliberate schema change
// bumps cacheVersion and these values together.
func TestFingerprintPinned(t *testing.T) {
	loops := testLoops(t, 8)
	if got, want := New(loops, nil).Fingerprint(),
		"03b72a07c2c3d6f70b87e08305a79aea0d20803fd8e3f983896e7c9537a8c42e"; got != want {
		t.Errorf("heuristic fingerprint = %s, want %s", got, want)
	}
	x := New(loops, &Options{Backend: BackendExact})
	if got, want := x.Fingerprint(),
		"1a002cae4f5b2a4345d6d09dfaff1dfa29962af43f19903c672749e722940c8c"; got != want {
		t.Errorf("exact fingerprint = %s, want %s", got, want)
	}
}
