package main

import (
	"strings"
	"testing"
)

func TestRunRouteErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no backends", nil, "-backends is required"},
		{"blank backends", []string{"-backends", " , "}, "-backends is required"},
		{"positional args", []string{"-backends", "127.0.0.1:1", "extra"}, "unexpected arguments"},
		{"duplicate backends", []string{"-backends", "127.0.0.1:1,http://127.0.0.1:1"}, "duplicate backend"},
		{"bad flag", []string{"-nope"}, "flag provided but not defined"},
		{"removed breaker threshold", []string{"-backends", "127.0.0.1:1", "-breaker-threshold", "3"}, "flag provided but not defined"},
		{"removed breaker cooldown", []string{"-backends", "127.0.0.1:1", "-breaker-cooldown", "5s"}, "flag provided but not defined"},
		{"removed hedge threshold", []string{"-backends", "127.0.0.1:1", "-hedge-after", "1s"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		err := runRoute(tc.args)
		if err == nil {
			t.Errorf("%s: runRoute succeeded, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestRunCacheBoundedGC drives the CLI's size-capped gc: populate a
// store, prune it to one entry, and confirm the stats path still works
// over the shrunken store.
func TestRunCacheBoundedGC(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-loops", "5", "-cache", dir, "fig7"}); err != nil {
		t.Fatalf("populate: %v", err)
	}
	if err := run([]string{"cache", "gc", "-dir", dir, "-max-entries", "1"}); err != nil {
		t.Fatalf("cache gc -max-entries: %v", err)
	}
	if err := run([]string{"cache", "gc", "-dir", dir, "-max-bytes", "1"}); err != nil {
		t.Fatalf("cache gc -max-bytes: %v", err)
	}
	if err := run([]string{"cache", "stats", "-dir", dir}); err != nil {
		t.Fatalf("cache stats after bounded gc: %v", err)
	}
	// The caps are gc-only flags: stats and clear must reject them.
	if err := run([]string{"cache", "stats", "-dir", dir, "-max-entries", "1"}); err == nil {
		t.Error("cache stats accepted -max-entries")
	}
}
