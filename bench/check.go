package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/machine"
	"repro/internal/perfcost"
	"repro/internal/serve"
)

// digestFile maps "<workload>/loops=<n>/seed=<s>" to the sha256 of the
// artifact's Render() output at that size and seed.
//
//go:embed testdata/digests.json
var digestFile []byte

func digestKey(workload string, loops int, seed int64) string {
	return fmt.Sprintf("%s/loops=%d/seed=%d", workload, loops, seed)
}

func sha(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// checkDigest compares an artifact digest with the listed one. A seed that
// is not listed is reported as unlisted, so two commits can still compare
// the printed digests; with -update the digest is stored instead.
func checkDigest(cfg config, o *outcome, loops int, digest string) error {
	key := digestKey(cfg.workload, loops, cfg.seed)
	listed := map[string]string{}
	if err := json.Unmarshal(digestFile, &listed); err != nil {
		return fmt.Errorf("embedded digests: %w", err)
	}
	if cfg.update {
		onDisk := map[string]string{}
		if buf, err := os.ReadFile(cfg.digests); err == nil {
			if err := json.Unmarshal(buf, &onDisk); err != nil {
				return fmt.Errorf("%s: %w", cfg.digests, err)
			}
		}
		onDisk[key] = digest
		buf, err := json.MarshalIndent(onDisk, "", "  ")
		if err != nil {
			return err
		}
		o.note("digest %s %s stored", key, digest)
		return os.WriteFile(cfg.digests, append(buf, '\n'), 0o644)
	}
	want, ok := listed[key]
	switch {
	case !ok:
		o.note("digest %s %s unlisted", key, digest)
	case want != digest:
		o.problem("digest %s: got %s, want %s", key, digest, want)
	default:
		o.note("digest %s %s verified", key, digest)
	}
	return nil
}

// wirePoint converts an engine point into the API's Point the way the
// server does, so responses can be checked byte for byte.
func wirePoint(e *perfcost.Engine, p perfcost.Point) serve.Point {
	return serve.Point{
		Label:      p.Label(),
		Config:     p.Config.String(),
		Regs:       p.Regs,
		Partitions: p.Partitions,
		Tc:         p.Tc,
		Z:          p.Z,
		Cycles:     p.Cycles,
		Time:       p.Time,
		Area:       p.Area,
		OK:         p.OK,
		Failures:   p.Failures,
		Spilled:    p.SpilledLoops,
		SpillOps:   p.SpillOps,
		Speedup:    e.Speedup(p),
	}
}

// cellKey is one requested design cell: z = 0 lets the access time pick
// the cycle model, as the API does.
type cellKey struct {
	config         machine.Config
	regs, parts, z int
}

func (c cellKey) point(e *perfcost.Engine) perfcost.Point {
	if c.z == 0 {
		return e.Evaluate(c.config, c.regs, c.parts)
	}
	return e.EvaluateWithModel(c.config, c.regs, c.parts, machine.ModelFor(c.z))
}

// evalBody is the exact GET /v1/eval body the server should send for the
// cell: the response indented by two spaces, newline-terminated.
func evalBody(e *perfcost.Engine, workload string, c cellKey) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(serve.EvalResponse{ // plain struct of numbers and strings: cannot fail
		Workload:    workload,
		Point:       wirePoint(e, c.point(e)),
		PeakSpeedup: e.PeakSpeedup(c.config),
	})
	return buf.Bytes()
}

// sweepLine is the exact NDJSON line a streamed sweep carries for the cell.
func sweepLine(e *perfcost.Engine, c cellKey) []byte {
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(wirePoint(e, c.point(e))) // cannot fail, as above
	return buf.Bytes()
}
