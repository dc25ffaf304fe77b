package main

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/resultcache"
)

// runCache implements the persistent result cache maintenance
// subcommand:
//
//	widening cache stats -dir DIR   entries, bytes, epochs, stale debris
//	widening cache gc    -dir DIR [-max-bytes N] [-max-entries N]
//	                                drop stale-epoch entries + orphan temp
//	                                files, then prune least-recently-used
//	                                live entries down to the caps
//	widening cache clear -dir DIR   wipe the cache entirely
//
// The cache itself is maintenance-free for correctness — corrupt entries
// are detected and recomputed on read, stale epochs are never read —
// these commands only inspect it and reclaim disk. The -max-* caps are
// the growth bound for stores shared by a serve fleet: N backends
// writing into one directory multiply the write rate, and a pruned
// entry is only ever a future recompute.
func runCache(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("cache: missing subcommand (want stats, gc or clear)")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "stats", "gc", "clear":
	default:
		return fmt.Errorf("cache: unknown subcommand %q (want stats, gc or clear)", sub)
	}
	fs := flag.NewFlagSet("cache "+sub, flag.ContinueOnError)
	dir := fs.String("dir", "", "result cache directory (required; the -cache value of experiment runs)")
	var maxBytes int64
	var maxEntries int
	if sub == "gc" {
		fs.Int64Var(&maxBytes, "max-bytes", 0, "prune least-recently-used entries until the store fits this many bytes (0 = no byte cap)")
		fs.IntVar(&maxEntries, "max-entries", 0, "prune least-recently-used entries down to this count (0 = no entry cap)")
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("cache %s: -dir is required", sub)
	}
	store, err := resultcache.Open(*dir)
	if err != nil {
		return err
	}
	switch sub {
	case "stats":
		u, err := store.Usage()
		if err != nil {
			return err
		}
		fmt.Printf("cache %s\n", store.Dir())
		fmt.Printf("  entries %d (%s), format epoch %s\n", u.Entries, formatBytes(u.Bytes), resultcache.FormatEpoch)
		fmt.Printf("  epochs on disk: %s\n", strings.Join(u.Epochs, ", "))
		if u.StaleEntries > 0 {
			fmt.Printf("  stale: %d file(s) (%s) reclaimable by `widening cache gc -dir %s`\n",
				u.StaleEntries, formatBytes(u.StaleBytes), *dir)
		}
	case "gc":
		removed, freed, err := store.GC()
		if err != nil {
			return err
		}
		fmt.Printf("cache gc: removed %d file(s), freed %s\n", removed, formatBytes(freed))
		if maxBytes > 0 || maxEntries > 0 {
			pruned, pfreed, err := store.BoundedGC(maxBytes, maxEntries)
			if err != nil {
				return err
			}
			fmt.Printf("cache gc: pruned %d least-recently-used entr(ies), freed %s\n", pruned, formatBytes(pfreed))
		}
	case "clear":
		u, _ := store.Usage()
		if err := store.Clear(); err != nil {
			return err
		}
		fmt.Printf("cache clear: removed %d file(s) (%s)\n",
			u.Entries+u.StaleEntries, formatBytes(u.Bytes+u.StaleBytes))
	}
	return nil
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
